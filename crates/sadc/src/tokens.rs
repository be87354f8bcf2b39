//! Incremental dictionary growth shared by the SADC builders.
//!
//! Both SADC variants keep, per cache block, a stream of *tokens*
//! (dictionary indices).  Each build cycle inserts the candidate with the
//! largest gain — an adjacent token pair or triple, or an ISA-specific
//! *specialization* of one token — and rewrites the streams with it.
//!
//! Following Re-Pair (Larsson & Moffat, "Off-line dictionary-based
//! compression", Proc. IEEE 2000), the candidate counts are built once and
//! then kept up to date: a cycle visits only the blocks that hold the
//! winner, subtracts each rewritten block's old candidates and adds its new
//! ones.  Entries never change once inserted, so a candidate's gain moves
//! only when its count does; winners come from a lazily invalidated
//! max-heap ordered by (gain desc, class asc, key asc) — exactly the first
//! strictly-best candidate of a full rescan in class, then key, order.
//! What a token *expands to*, and what a specialization means, is the
//! per-ISA codec's business ([`Alphabet`]).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::ops::Range;

/// A packed candidate: its class in the top two bits, its payload below.
///
/// Token ids are below 256, so a group packs its tokens one per byte and
/// a specialization packs its token into bits 20..28 above a 20-bit
/// payload.  Numeric order within a class is the tuple order of the
/// unpacked fields, which is the order a full rescan visits them in.
pub(crate) type Key = u32;

/// Adjacent token pair `(a, b)`.
pub(crate) const PAIR: u32 = 0;
/// Adjacent token triple `(a, b, c)`.
pub(crate) const TRIPLE: u32 = 1;

/// The key of the pair `(a, b)`.
pub(crate) fn pair_key(a: usize, b: usize) -> Key {
    (a << 8 | b) as Key
}

/// The key of the triple `(a, b, c)`.
pub(crate) fn triple_key(a: usize, b: usize, c: usize) -> Key {
    TRIPLE << 30 | (a << 16 | b << 8 | c) as Key
}

/// The key of a specialization of `token`: an ISA-defined `class` (2 or
/// 3) and a `payload` below 2²⁰.
pub(crate) fn special_key(class: u32, token: usize, payload: u32) -> Key {
    debug_assert!(class > TRIPLE && class < 4 && token < 256 && payload < 1 << 20);
    class << 30 | (token as Key) << 20 | payload
}

/// The class of `key`.
pub(crate) fn class(key: Key) -> u32 {
    key >> 30
}

/// The token a specialization key specializes.
pub(crate) fn special_token(key: Key) -> usize {
    (key >> 20 & 0xFF) as usize
}

/// The 20-bit payload of a specialization key.
pub(crate) fn special_payload(key: Key) -> u32 {
    key & 0xF_FFFF
}

/// The tokens of a group key, or `None` for a specialization.
pub(crate) fn group(key: Key) -> Option<Group> {
    let byte = |shift: u32| (key >> shift & 0xFF) as usize;
    match class(key) {
        PAIR => Some(Group { tokens: [byte(8), byte(0), 0], len: 2 }),
        TRIPLE => Some(Group { tokens: [byte(16), byte(8), byte(0)], len: 3 }),
        _ => None,
    }
}

/// An unpacked pair or triple; dereferences to its tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    tokens: [usize; 3],
    len: usize,
}

impl std::ops::Deref for Group {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.tokens[..self.len]
    }
}

/// What the growth loop needs from an ISA's dictionary.
pub(crate) trait Alphabet {
    /// Gain of inserting candidate `key`, which occurs `count` times;
    /// must grow strictly with `count`.
    fn gain(&self, key: Key, count: u32) -> i64;

    /// Appends the specialization candidates of the tokens at positions
    /// `span` of block `block`, which holds `tokens`.
    fn specializations(
        &self,
        _block: usize,
        _tokens: &[usize],
        _span: Range<usize>,
        _out: &mut Vec<Key>,
    ) {
    }

    /// Rewrites every occurrence of specialization `key` in block `block`
    /// to token `new`; returns whether anything changed.
    fn specialize(&self, _key: Key, _block: usize, _tokens: &mut [usize], _new: usize) -> bool {
        unreachable!("this alphabet has no specializations")
    }

    /// Appends the dictionary entry for `key` as the next token id.
    fn insert(&mut self, key: Key);
}

/// Grows the dictionary from `tokens` entries up to `max_tokens`,
/// rewriting `blocks` in place; returns the winning keys in insertion
/// order.  Stops early once no candidate has a positive gain.
pub(crate) fn grow(
    alphabet: &mut impl Alphabet,
    blocks: &mut [Vec<usize>],
    groups: bool,
    mut tokens: usize,
    max_tokens: usize,
) -> Vec<Key> {
    // Per token, the blocks that may hold it; entries go stale when a
    // rewrite removes the token and are dropped on the next visit.
    let mut holders: Vec<Vec<u32>> = vec![Vec::new(); max_tokens];
    let mut counts = Counts::default();
    let mut keys = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        block_keys(alphabet, groups, b, block, 0..block.len(), &mut keys);
        keys.iter().for_each(|&key| counts.tally(key));
        for &t in block {
            if holders[t].last() != Some(&(b as u32)) {
                holders[t].push(b as u32);
            }
        }
    }
    counts.queue_all(|key, count| alphabet.gain(key, count));

    let (mut before, mut old) = (Vec::new(), Vec::new());
    let mut winners = Vec::new();
    while tokens < max_tokens {
        let Some((gain, key)) = counts.pop_best(|key, count| alphabet.gain(key, count)) else {
            break;
        };
        if gain <= 0 {
            break;
        }
        alphabet.insert(key);
        let pattern = group(key);
        // Visit the blocks of the pattern's rarest token.
        let anchor = match &pattern {
            Some(p) => *p.iter().min_by_key(|&&t| holders[t].len()).expect("groups are non-empty"),
            None => special_token(key),
        };
        let visits = std::mem::take(&mut holders[anchor]);
        let mut kept = Vec::with_capacity(visits.len());
        for b in visits {
            let block = &mut blocks[b as usize];
            before.clear();
            before.extend_from_slice(block);
            let changed = match &pattern {
                Some(p) => replace_in_slice(block, p, tokens) > 0,
                None => alphabet.specialize(key, b as usize, block, tokens),
            };
            if changed {
                // Only candidates touching the span between the common
                // prefix and suffix of the old and new streams can move.
                let prefix = before.iter().zip(block.iter()).take_while(|(x, y)| x == y).count();
                let suffix = before[prefix..]
                    .iter()
                    .rev()
                    .zip(block[prefix..].iter().rev())
                    .take_while(|(x, y)| x == y)
                    .count();
                let span = |len: usize| prefix..len - suffix;
                block_keys(alphabet, groups, b as usize, &before, span(before.len()), &mut old);
                old.iter().for_each(|&key| counts.remove(key));
                block_keys(alphabet, groups, b as usize, block, span(block.len()), &mut keys);
                keys.iter().for_each(|&key| counts.add(key));
                holders[tokens].push(b);
            }
            if block.contains(&anchor) {
                kept.push(b);
            }
        }
        holders[anchor] = kept;
        counts.flush(|key, count| alphabet.gain(key, count));
        winners.push(key);
        tokens += 1;
    }
    winners
}

/// Writes into `out` the candidate keys of block `block` (holding
/// `tokens`) that involve a token in `span`: the adjacent pairs and
/// triples overlapping it (when `groups`), then its specializations.
fn block_keys(
    alphabet: &impl Alphabet,
    groups: bool,
    block: usize,
    tokens: &[usize],
    span: Range<usize>,
    out: &mut Vec<Key>,
) {
    out.clear();
    if groups {
        let starts = |width: usize| {
            span.start.saturating_sub(width - 1)
                ..span.end.min((tokens.len() + 1).saturating_sub(width))
        };
        out.extend(starts(2).map(|s| pair_key(tokens[s], tokens[s + 1])));
        out.extend(starts(3).map(|s| triple_key(tokens[s], tokens[s + 1], tokens[s + 2])));
    }
    alphabet.specializations(block, tokens, span, out);
}

/// Replaces non-overlapping occurrences of `pattern` in `tokens` with
/// `replacement`, left to right, in place.  Returns the number of
/// replacements.
pub(crate) fn replace_in_slice(
    tokens: &mut Vec<usize>,
    pattern: &[usize],
    replacement: usize,
) -> usize {
    let (mut read, mut write, mut replaced) = (0, 0, 0);
    while read < tokens.len() {
        if tokens[read..].starts_with(pattern) {
            tokens[write] = replacement;
            read += pattern.len();
            replaced += 1;
        } else {
            tokens[write] = tokens[read];
            read += 1;
        }
        write += 1;
    }
    tokens.truncate(write);
    replaced
}

/// A candidate's live count and the count its newest heap entry carries
/// (zero when it has none).
#[derive(Debug, Default)]
struct Tally {
    count: u32,
    queued: u32,
}

/// Candidate counts plus the lazily invalidated gain-ordered heap.
///
/// A heap entry is live while its gain is the one the candidate's current
/// count gives (gains grow strictly with counts); [`Counts::flush`]
/// queues a fresh entry for every candidate whose count moved since it
/// was last queued.
#[derive(Debug, Default)]
struct Counts {
    tallies: HashMap<Key, Tally>,
    heap: BinaryHeap<(i64, Reverse<Key>)>,
    dirty: Vec<Key>,
}

impl Counts {
    /// Counts one occurrence of `key` without queueing it (the initial
    /// count; [`Counts::queue_all`] follows).
    fn tally(&mut self, key: Key) {
        self.tallies.entry(key).or_default().count += 1;
    }

    /// Queues every candidate at once.
    fn queue_all(&mut self, gain: impl Fn(Key, u32) -> i64) {
        let entries: Vec<_> = self
            .tallies
            .iter_mut()
            .map(|(&key, tally)| {
                tally.queued = tally.count;
                (gain(key, tally.count), Reverse(key))
            })
            .collect();
        self.heap = BinaryHeap::from(entries);
    }

    fn add(&mut self, key: Key) {
        self.tallies.entry(key).or_default().count += 1;
        self.dirty.push(key);
    }

    fn remove(&mut self, key: Key) {
        let tally = self.tallies.get_mut(&key).expect("removed candidates were counted");
        tally.count -= 1;
        self.dirty.push(key);
    }

    /// Queues every moved candidate under its new gain and forgets the
    /// ones whose count reached zero.
    fn flush(&mut self, gain: impl Fn(Key, u32) -> i64) {
        for key in self.dirty.drain(..) {
            let Entry::Occupied(mut entry) = self.tallies.entry(key) else { continue };
            let tally = entry.get_mut();
            if tally.count == 0 {
                entry.remove();
            } else if tally.count != tally.queued {
                tally.queued = tally.count;
                self.heap.push((gain(key, tally.count), Reverse(key)));
            }
        }
        // Rebuild once stale entries outnumber live ones, bounding memory.
        if self.heap.len() > 2 * self.tallies.len() {
            self.queue_all(gain);
        }
    }

    /// Pops the best live candidate and its gain.  The winner is marked
    /// for re-queueing, so it stays a candidate if its count survives.
    fn pop_best(&mut self, gain: impl Fn(Key, u32) -> i64) -> Option<(i64, Key)> {
        while let Some((best, Reverse(key))) = self.heap.pop() {
            let live = self.tallies.get_mut(&key).filter(|t| gain(key, t.count) == best);
            if let Some(tally) = live {
                tally.queued = 0;
                self.dirty.push(key);
                return Some((best, key));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pairs and triples only, gain `count - 1` for every candidate.
    struct Plain(Vec<Key>);

    impl Alphabet for Plain {
        fn gain(&self, _key: Key, count: u32) -> i64 {
            i64::from(count) - 1
        }

        fn insert(&mut self, key: Key) {
            self.0.push(key);
        }
    }

    #[test]
    fn pair_and_triple_counts() {
        let blocks = [vec![1, 2, 1, 2, 3], vec![1, 2, 3]];
        let mut counts = Counts::default();
        let mut keys = Vec::new();
        for (b, block) in blocks.iter().enumerate() {
            block_keys(&Plain(Vec::new()), true, b, block, 0..block.len(), &mut keys);
            keys.iter().for_each(|&key| counts.tally(key));
        }
        let count = |key| counts.tallies.get(&key).map_or(0, |t| t.count);
        assert_eq!(count(pair_key(1, 2)), 3);
        assert_eq!(count(pair_key(2, 1)), 1);
        assert_eq!(count(triple_key(1, 2, 3)), 2);
        assert_eq!(count(pair_key(3, 1)), 0, "no cross-block pairs");
    }

    #[test]
    fn keys_order_like_the_rescan() {
        // Class first, then the unpacked tuple.
        assert!(pair_key(255, 255) < triple_key(0, 0, 0));
        assert!(pair_key(1, 200) < pair_key(2, 0));
        assert!(triple_key(1, 2, 255) < triple_key(1, 3, 0));
        assert!(triple_key(255, 255, 255) < special_key(2, 0, 0));
        assert!(special_key(2, 3, 0xF_FFFF) < special_key(2, 4, 0));
        assert_eq!(group(triple_key(7, 8, 9)).as_deref(), Some(&[7, 8, 9][..]));
        let key = special_key(3, 200, 0x2_3456);
        assert_eq!((class(key), special_token(key), special_payload(key)), (3, 200, 0x2_3456));
        assert_eq!(group(key), None);
    }

    #[test]
    fn replacement_is_non_overlapping_left_to_right() {
        let mut tokens = vec![7, 7, 7, 7, 7];
        let n = replace_in_slice(&mut tokens, &[7, 7], 9);
        assert_eq!(n, 2);
        assert_eq!(tokens, vec![9, 9, 7]);
    }

    #[test]
    fn replacement_respects_block_boundaries() {
        // Read across block boundaries, (1, 2) would occur twice and win.
        let mut blocks = vec![vec![1], vec![2], vec![1], vec![2]];
        let mut alphabet = Plain(Vec::new());
        assert!(grow(&mut alphabet, &mut blocks, true, 3, 5).is_empty());
        let mut blocks = vec![vec![1, 2], vec![1, 2, 1]];
        let winners = grow(&mut alphabet, &mut blocks, true, 3, 5);
        assert_eq!(winners, vec![pair_key(1, 2)]);
        assert_eq!(blocks, vec![vec![3], vec![3, 1]]);
    }

    #[test]
    fn ties_go_to_the_first_candidate_in_rescan_order() {
        // (4, 5) and (6, 7) both occur twice; the pair (4, 5) comes first.
        let mut blocks = vec![vec![6, 7, 4, 5], vec![6, 7, 4, 5]];
        let winners = grow(&mut Plain(Vec::new()), &mut blocks, true, 8, 9);
        assert_eq!(winners, vec![pair_key(4, 5)]);
    }

    #[test]
    fn empty_blocks_are_fine() {
        let mut empty: Vec<Vec<usize>> = vec![vec![]];
        assert!(grow(&mut Plain(Vec::new()), &mut empty, true, 0, 4).is_empty());
        let mut tokens = Vec::new();
        assert_eq!(replace_in_slice(&mut tokens, &[1, 2], 3), 0);
    }
}
