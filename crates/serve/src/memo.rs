//! The generator-spec → graph-digest memo: how a repeat submit computes
//! its cache key without rebuilding its graph.
//!
//! A cache key embeds the [`graph_digest`](crate::request::graph_digest)
//! of the built graph, and building a generator's graph is most of what a
//! cache hit used to cost. The memo is sound because every generator is a
//! pure function of its spec — the seeded ones draw from
//! `SmallRng::seed_from_u64(graph_seed)` — so a spec's digest never
//! changes, and the key is computed from the digest exactly as before:
//! keys are unchanged. Two rules keep it so:
//!
//! * the memo key is injective in the spec: integers as themselves and
//!   `p` by [`f64::to_bits`], never by rendered decimal text, so two
//!   specs one ulp apart never share an entry;
//! * DIMACS uploads are never memoised. Their digest always comes from
//!   the parsed graph, so an upload still addresses the entry of the
//!   generator whose structure it encodes.
//!
//! The memo holds at most [`DIGEST_MEMO_CAP`] entries and evicts in
//! insertion order; an evicted spec just pays one build on its next
//! submit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::request::GraphSpec;

/// Most generator specs whose digest the memo keeps.
pub const DIGEST_MEMO_CAP: usize = 1_024;

/// A generator spec as the memo keys it: the generator name and its
/// parameters as integers, in fixed positions per generator.
type SpecKey = (&'static str, [u64; 3]);

fn spec_key(spec: &GraphSpec) -> Option<SpecKey> {
    let int = |x: usize| x as u64;
    Some(match *spec {
        GraphSpec::Gnp { n, p, graph_seed } => ("gnp", [int(n), p.to_bits(), graph_seed]),
        GraphSpec::Grid2d { rows, cols } => ("grid2d", [int(rows), int(cols), 0]),
        GraphSpec::Torus2d { rows, cols } => ("torus2d", [int(rows), int(cols), 0]),
        GraphSpec::Cycle { n } => ("cycle", [int(n), 0, 0]),
        GraphSpec::Path { n } => ("path", [int(n), 0, 0]),
        GraphSpec::Complete { n } => ("complete", [int(n), 0, 0]),
        GraphSpec::Star { n } => ("star", [int(n), 0, 0]),
        GraphSpec::RandomTree { n, graph_seed } => ("random_tree", [int(n), graph_seed, 0]),
        GraphSpec::Dimacs { .. } => return None,
    })
}

#[derive(Default)]
struct Inner {
    digests: BTreeMap<SpecKey, u64>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<SpecKey>,
}

/// Thread-safe, bounded map from generator spec to the digest of the
/// graph it builds.
#[derive(Default)]
pub struct DigestMemo {
    inner: Mutex<Inner>,
}

impl DigestMemo {
    /// The memoised digest of `spec`'s graph; always `None` for DIMACS.
    #[must_use]
    pub fn get(&self, spec: &GraphSpec) -> Option<u64> {
        let key = spec_key(spec)?;
        let inner = self.inner.lock().expect("digest memo poisoned");
        inner.digests.get(&key).copied()
    }

    /// Records the digest of `spec`'s built graph, evicting the oldest
    /// entries beyond [`DIGEST_MEMO_CAP`]. A no-op for DIMACS.
    pub fn insert(&self, spec: &GraphSpec, digest: u64) {
        let Some(key) = spec_key(spec) else { return };
        let mut inner = self.inner.lock().expect("digest memo poisoned");
        if inner.digests.insert(key, digest).is_none() {
            inner.order.push_back(key);
        }
        while inner.order.len() > DIGEST_MEMO_CAP {
            let oldest = inner.order.pop_front().expect("order is non-empty");
            inner.digests.remove(&oldest);
        }
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("digest memo poisoned")
            .digests
            .len()
    }

    /// Whether the memo holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_with_equal_parameters_do_not_share_keys() {
        let specs = [
            GraphSpec::Cycle { n: 8 },
            GraphSpec::Path { n: 8 },
            GraphSpec::Complete { n: 8 },
            GraphSpec::Star { n: 8 },
            GraphSpec::Grid2d { rows: 8, cols: 0 },
            GraphSpec::Torus2d { rows: 8, cols: 0 },
            GraphSpec::RandomTree {
                n: 8,
                graph_seed: 0,
            },
        ];
        let mut keys: Vec<SpecKey> = specs.iter().filter_map(spec_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), specs.len());
    }

    #[test]
    fn eviction_is_in_insertion_order_at_the_cap() {
        let memo = DigestMemo::default();
        let cycle = |n| GraphSpec::Cycle { n };
        for n in 0..DIGEST_MEMO_CAP {
            memo.insert(&cycle(n), n as u64);
        }
        // Re-inserting a held spec neither grows the memo nor refreshes
        // its place in the eviction order.
        memo.insert(&cycle(0), 0);
        assert_eq!(memo.len(), DIGEST_MEMO_CAP);
        memo.insert(&cycle(DIGEST_MEMO_CAP), 0);
        assert_eq!(memo.len(), DIGEST_MEMO_CAP);
        assert_eq!(memo.get(&cycle(0)), None, "oldest entry evicted");
        assert_eq!(memo.get(&cycle(1)), Some(1));
        assert_eq!(memo.get(&cycle(DIGEST_MEMO_CAP)), Some(0));
    }
}
