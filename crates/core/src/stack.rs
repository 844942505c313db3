//! The KRR stack: an array-backed priority stack with a hash index
//! (§4.4 "Implementation").
//!
//! Objects live in a flat slot array indexed by a stable per-object *id*
//! (assigned at first reference, never changed), and the stack order is a
//! permutation over those ids: `perm[pos] = id` with its inverse
//! `inv[id] = pos`. A hash table maps each key to its id — and because ids
//! are stable, the hash table is written exactly once per distinct object,
//! at cold insertion. A stack *update* moves only the objects on the swap
//! chain, touching nothing but the two flat permutation arrays (no hash
//! writes on the hot path), which is what makes KRR cheap: the expected
//! chain length is `O(K·logM)` (Corollary 1).
//!
//! Every update is one backward walk over the chain, from `φ` toward the
//! top: each step moves the entry at chain position `x` down to the
//! previous step's position. The backward updater (Algorithm 2) draws each
//! `x` inside that walk, so it never materializes a chain. The naive and
//! top-down updaters, kept to reproduce Table 5.3, sample their chain into
//! a buffer first and then walk it in reverse. Either way an observer
//! passed to [`KrrStack::access_with`] sees each step's position and the
//! entry there before it moves — what the byte-level [`crate::SizeArray`]
//! needs.

use crate::checkpoint::{Dec, Enc};
use crate::hashing::KeyMap;
use crate::rng::Xoshiro256;
use crate::update::lut::{self, InvCdfTable};
use crate::update::{self, UpdaterKind};
use std::io;
use std::sync::Arc;

/// One object resident on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Object key.
    pub key: u64,
    /// Object size in bytes (1 for uniform-size workloads).
    pub size: u32,
}

/// Outcome of a single reference processed by [`KrrStack::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// First reference to the key. `stack_len` is the number of distinct
    /// objects *after* the insertion (the paper's `γ_t`); the cold object is
    /// attached to the stack end before the update, so its `φ = stack_len`.
    Cold {
        /// Distinct objects on the stack after insertion.
        stack_len: u64,
    },
    /// Re-reference. `phi` is the 1-based stack position the object occupied
    /// before the update — its (object-granularity) stack distance.
    Hit {
        /// Stack distance of the reference.
        phi: u64,
    },
}

impl Access {
    /// Stack position the referenced object occupied before the update
    /// (equal to the stack length for cold misses).
    #[must_use]
    pub fn phi(&self) -> u64 {
        match *self {
            Access::Cold { stack_len } => stack_len,
            Access::Hit { phi } => phi,
        }
    }

    /// True if this was the first reference to the key.
    #[must_use]
    pub fn is_cold(&self) -> bool {
        matches!(self, Access::Cold { .. })
    }
}

/// The KRR priority stack.
///
/// `k` is the *effective* sampling size used by the swap probabilities —
/// callers modeling a K-LRU cache with sampling size `K` should pass
/// `K′ = K^1.4` (see [`crate::prob::k_prime`]).
#[derive(Debug, Clone)]
pub struct KrrStack {
    /// Objects by stable id (insertion order). `slots[id]` never moves.
    slots: Vec<Entry>,
    /// Stack order: `perm[pos] = id` (0-based positions, top first).
    perm: Vec<u32>,
    /// Inverse permutation: `inv[id] = pos` (0-based).
    inv: Vec<u32>,
    /// Key → id. Written once per distinct object, at cold insertion —
    /// never on the swap-chain hot path.
    index: KeyMap<u32>,
    k: f64,
    updater: UpdaterKind,
    rng: Xoshiro256,
    /// Chain buffer of the naive and top-down updaters; the backward
    /// updater never fills it.
    chain: Vec<u64>,
    /// Shared small-`c` inverse-CDF cutoff table ([`InvCdfTable`]), built
    /// lazily on the first backward update and cached process-wide per `k`.
    lut: Option<Arc<InvCdfTable>>,
    last_chain_len: u64,
    last_scanned: u64,
}

impl KrrStack {
    /// Creates an empty stack with effective sampling size `k`, the given
    /// update strategy, and a deterministic RNG seed.
    #[must_use]
    pub fn new(k: f64, updater: UpdaterKind, seed: u64) -> Self {
        assert!(k >= 1.0, "effective sampling size must be >= 1, got {k}");
        Self {
            slots: Vec::new(),
            perm: Vec::new(),
            inv: Vec::new(),
            index: KeyMap::default(),
            k,
            updater,
            rng: Xoshiro256::seed_from_u64(seed),
            chain: Vec::new(),
            lut: None,
            last_chain_len: 0,
            last_scanned: 0,
        }
    }

    /// Number of distinct objects on the stack (the paper's `γ_t` / `M`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no object has been referenced yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Effective sampling size `K′` in use.
    #[must_use]
    pub fn k(&self) -> f64 {
        self.k
    }

    /// Current 1-based stack position of `key`, if present.
    #[must_use]
    pub fn position_of(&self, key: u64) -> Option<u64> {
        self.index
            .get(&key)
            .map(|&id| u64::from(self.inv[id as usize]) + 1)
    }

    /// Entry at 1-based stack position `pos`.
    #[must_use]
    pub fn entry_at(&self, pos: u64) -> Option<&Entry> {
        self.perm
            .get(pos as usize - 1)
            .map(|&id| &self.slots[id as usize])
    }

    /// Length of the swap chain of the most recent [`KrrStack::access`]:
    /// the number of positions, from 1 up to but excluding `φ`, whose
    /// entries moved down. 0 when the last access had `φ = 1` (or no
    /// access has happened).
    #[must_use]
    pub fn last_chain_len(&self) -> u64 {
        self.last_chain_len
    }

    /// Stack positions the update strategy examined during the most recent
    /// [`KrrStack::access`] — the per-update work metric (chain length for
    /// the backward updater, visited tree nodes for top-down, `φ − 1` for
    /// the naive scan).
    #[must_use]
    pub fn last_scanned(&self) -> u64 {
        self.last_scanned
    }

    /// Processes one reference: finds the object's stack distance, samples a
    /// swap chain with the configured strategy, and applies the cyclic shift
    /// that moves the referenced object to the stack top.
    #[inline]
    pub fn access(&mut self, key: u64, size: u32) -> Access {
        self.access_with(key, size, |_, _| {})
    }

    /// [`KrrStack::access`] that reports each chain step to `on_step`:
    /// called with the chain positions in descending order (the last call
    /// is position 1), and for each with the entry that sat at that
    /// position before this update, just before it moves down. The
    /// terminal position `φ` itself is not reported. Not called at all
    /// when `φ = 1`.
    #[inline]
    pub fn access_with(&mut self, key: u64, size: u32, on_step: impl FnMut(u64, &Entry)) -> Access {
        let (phi, result) = match self.index.get(&key) {
            Some(&id) => {
                let phi = u64::from(self.inv[id as usize]) + 1;
                // An object's recorded size may change on re-reference
                // (e.g. an overwriting SET); keep the stack's view current.
                self.slots[id as usize].size = size;
                (phi, Access::Hit { phi })
            }
            None => {
                let pos = self.slots.len() as u64 + 1;
                assert!(pos <= u64::from(u32::MAX), "stack exceeds u32 index space");
                // A new object's id equals its initial (bottom) position.
                let id = (pos - 1) as u32;
                self.slots.push(Entry { key, size });
                self.perm.push(id);
                self.inv.push(id);
                self.index.insert(key, id);
                (pos, Access::Cold { stack_len: pos })
            }
        };
        self.update(phi, on_step);
        result
    }

    /// Samples the swap chain for a reference at stack distance `phi` and
    /// applies it as a cyclic shift: walking the chain from `φ` toward the
    /// top, the entry at each chain position moves down to the previously
    /// visited position, and the referenced object lands on top. Positions
    /// are visited in descending order, so the entry at each one is still
    /// in place when `on_step` sees it. Only the permutation arrays
    /// change — ids are stable, so the key index is untouched.
    #[inline]
    fn update(&mut self, phi: u64, mut on_step: impl FnMut(u64, &Entry)) {
        self.last_chain_len = 0;
        self.last_scanned = 0;
        if phi <= 1 {
            return;
        }
        let (slots, perm, inv) = (&self.slots, &mut self.perm, &mut self.inv);
        let id_ref = perm[phi as usize - 1];
        let mut dest = phi;
        let mut step = |x: u64| {
            let id = perm[x as usize - 1];
            on_step(x, &slots[id as usize]);
            perm[dest as usize - 1] = id;
            inv[id as usize] = (dest - 1) as u32;
            dest = x;
        };
        let (chain_len, scanned) = if self.updater == UpdaterKind::Backward {
            // Algorithm 2 emits positions in exactly this descending order,
            // so each inverse-CDF draw moves its entry immediately.
            // Draw-for-draw identical to `update::backward_chain` (same
            // 53-bit draws, same `⌈r^{1/K}·(i−1)⌉` positions), which
            // `fused_update_is_bit_identical` locks in.
            let table: &InvCdfTable = self.lut.get_or_insert_with(|| InvCdfTable::for_k(self.k));
            let inv_k = 1.0 / self.k;
            let mut i = phi;
            let mut jumps = 0u64;
            while i > 1 {
                let c = i - 1;
                // One 53-bit draw per jump, answered three ways that are
                // all bit-identical to `unit_open_low` + the powf formula:
                // c = 1 is always position 1, small c comes from the
                // integer cutoff table, large c evaluates the float
                // pipeline directly.
                let m = self.rng.next_u64() >> 11;
                i = if c == 1 {
                    1
                } else if c <= lut::CMAX {
                    table.position(m, c)
                } else {
                    let r = 1.0 - m as f64 * (1.0 / (1u64 << 53) as f64);
                    ((r.powf(inv_k) * c as f64).ceil() as u64).clamp(1, c)
                };
                step(i);
                jumps += 1;
            }
            (jumps, jumps)
        } else {
            self.chain.clear();
            let scanned =
                update::swap_chain(self.updater, phi, self.k, &mut self.rng, &mut self.chain);
            for &x in self.chain.iter().rev() {
                step(x);
            }
            (self.chain.len() as u64, scanned)
        };
        debug_assert_eq!(dest, 1);
        perm[0] = id_ref;
        inv[id_ref as usize] = 0;
        self.last_chain_len = chain_len;
        self.last_scanned = scanned;
    }

    /// Iterates entries from stack top to bottom (test/diagnostic use).
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.perm.iter().map(|&id| &self.slots[id as usize])
    }

    /// Serializes the stack into a `krr-ckpt-v1` payload: `k`, updater tag,
    /// RNG state, and the entry array in stack order. The id/permutation
    /// split and the key index are in-memory layout, re-derivable from
    /// stack order, and not stored — the wire bytes are identical to the
    /// pre-permutation format. Per-access scratch (the last swap chain) is
    /// transient and not stored.
    pub fn save_state(&self, enc: &mut Enc) {
        enc.put_f64(self.k).put_u8(self.updater.to_tag());
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.perm.len() as u64);
        for e in self.iter() {
            enc.put_u64(e.key).put_u32(e.size);
        }
    }

    /// Reconstructs a stack from a [`KrrStack::save_state`] payload,
    /// rebuilding the key index from the entry array and resuming the RNG
    /// stream exactly where it left off.
    pub fn load_state(dec: &mut Dec<'_>) -> io::Result<Self> {
        let k = dec.f64()?;
        let updater = UpdaterKind::from_tag(dec.u8()?).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "unknown updater tag in checkpoint",
            )
        })?;
        let rng = Xoshiro256::from_state([dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?]);
        let n = dec.u64()?;
        let n = usize::try_from(n)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stack length overflow"))?;
        // The payload lists entries in stack order; assign ids in that
        // order, so the restored permutation starts out as the identity.
        let mut slots = Vec::with_capacity(n);
        let mut index = KeyMap::default();
        for i in 0..n {
            let key = dec.u64()?;
            let size = dec.u32()?;
            slots.push(Entry { key, size });
            index.insert(key, i as u32);
        }
        if index.len() != slots.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "duplicate key in checkpointed stack",
            ));
        }
        Ok(Self {
            perm: (0..n as u32).collect(),
            inv: (0..n as u32).collect(),
            slots,
            index,
            k,
            updater,
            rng,
            chain: Vec::new(),
            lut: None,
            last_chain_len: 0,
            last_scanned: 0,
        })
    }

    /// Estimated heap footprint in bytes: the slot array, the two
    /// permutation arrays, and the key index (§5.6's space-cost
    /// accounting).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        use crate::footprint::Footprint;
        let r = self.footprint();
        r.get("stack_entries") + r.get("stack_index")
    }
}

impl crate::footprint::Footprint for KrrStack {
    /// The §5.6 space breakdown: the entry storage (slots plus both
    /// permutation arrays), the key index (same model as
    /// [`KrrStack::memory_bytes`]), and the chain buffer of the naive and
    /// top-down updaters (empty under the backward updater).
    fn footprint(&self) -> crate::footprint::FootprintReport {
        let mut r = crate::footprint::FootprintReport::new();
        r.add(
            "stack_entries",
            self.slots.capacity() * std::mem::size_of::<Entry>()
                + self.perm.capacity() * std::mem::size_of::<u32>()
                + self.inv.capacity() * std::mem::size_of::<u32>(),
        )
        .add(
            "stack_index",
            crate::footprint::map_bytes(self.index.capacity(), std::mem::size_of::<(u64, u32)>()),
        )
        .add(
            "stack_scratch",
            self.chain.capacity() * std::mem::size_of::<u64>(),
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack(k: f64, updater: UpdaterKind) -> KrrStack {
        KrrStack::new(k, updater, 0xDEAD_BEEF)
    }

    #[test]
    fn cold_misses_report_growing_stack() {
        let mut s = stack(4.0, UpdaterKind::Backward);
        for key in 0..100u64 {
            match s.access(key, 1) {
                Access::Cold { stack_len } => assert_eq!(stack_len, key + 1),
                Access::Hit { .. } => panic!("unexpected hit"),
            }
        }
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn referenced_object_moves_to_top() {
        for updater in UpdaterKind::ALL {
            let mut s = stack(4.0, updater);
            for key in 0..50u64 {
                s.access(key, 1);
                assert_eq!(s.position_of(key), Some(1), "{updater:?}");
            }
            s.access(17, 1);
            assert_eq!(s.position_of(17), Some(1));
        }
    }

    #[test]
    fn stack_remains_a_permutation() {
        for updater in UpdaterKind::ALL {
            let mut s = stack(3.0, updater);
            let mut rng = Xoshiro256::seed_from_u64(1);
            for _ in 0..5000 {
                let key = rng.below(200);
                s.access(key, 1);
            }
            assert_eq!(s.len(), 200);
            let mut seen = std::collections::HashSet::new();
            for (i, e) in s.iter().enumerate() {
                assert!(seen.insert(e.key), "duplicate key {} ({updater:?})", e.key);
                assert_eq!(
                    s.position_of(e.key),
                    Some(i as u64 + 1),
                    "index out of sync"
                );
            }
        }
    }

    #[test]
    fn immediate_rereference_has_distance_one() {
        let mut s = stack(2.0, UpdaterKind::Backward);
        s.access(1, 1);
        assert_eq!(s.access(1, 1), Access::Hit { phi: 1 });
    }

    #[test]
    fn large_k_behaves_like_lru() {
        // With a huge effective K every interior position swaps, so the
        // stack order equals exact LRU recency order.
        let mut s = stack(1e6, UpdaterKind::Backward);
        for key in 0..20u64 {
            s.access(key, 1);
        }
        s.access(5, 1);
        // LRU order now: 5, 19, 18, ..., 6, 4, 3, 2, 1, 0
        let order: Vec<u64> = s.iter().map(|e| e.key).collect();
        let mut expect = vec![5];
        expect.extend((6..20).rev());
        expect.extend((0..5).rev());
        assert_eq!(order, expect);
    }

    #[test]
    fn hit_distance_matches_position() {
        let mut s = stack(4.0, UpdaterKind::TopDown);
        for key in 0..30u64 {
            s.access(key, 1);
        }
        let pos = s.position_of(3).unwrap();
        assert_eq!(s.access(3, 1), Access::Hit { phi: pos });
    }

    #[test]
    fn size_updates_on_rereference() {
        let mut s = stack(2.0, UpdaterKind::Backward);
        s.access(7, 100);
        s.access(7, 250);
        assert_eq!(s.entry_at(1).unwrap().size, 250);
    }

    #[test]
    fn save_load_resumes_bit_identically() {
        for updater in UpdaterKind::ALL {
            let mut a = stack(5.0, updater);
            let mut rng = Xoshiro256::seed_from_u64(2);
            for _ in 0..3000 {
                a.access(rng.below(300), 1);
            }
            let mut enc = Enc::new();
            a.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut b = KrrStack::load_state(&mut Dec::new(&bytes)).unwrap();
            for _ in 0..3000 {
                let key = rng.below(300);
                assert_eq!(a.access(key, 1), b.access(key, 1), "{updater:?}");
            }
            let ea: Vec<_> = a.iter().collect();
            let eb: Vec<_> = b.iter().collect();
            assert_eq!(ea, eb, "{updater:?}");
        }
    }

    #[test]
    fn fused_update_is_bit_identical() {
        // Same seed, same reference sequence: the one-pass backward update
        // (cutoff table, float fallback, in-place moves) must consume the
        // identical RNG stream and land every object on the identical
        // position as `backward_chain` + a cyclic shift on a plain `Vec` —
        // also across a checkpoint boundary in mid-trace.
        for k in [1.0, 5.0f64.powf(1.4), 16.0f64.powf(1.4)] {
            let mut s = stack(k, UpdaterKind::Backward);
            let (mut keys, mut chain) = (Vec::new(), Vec::new());
            let mut ref_rng = Xoshiro256::seed_from_u64(0xDEAD_BEEF);
            let mut rng = Xoshiro256::seed_from_u64(3);
            for i in 0..20_000 {
                if i == 10_000 {
                    let mut enc = Enc::new();
                    s.save_state(&mut enc);
                    s = KrrStack::load_state(&mut Dec::new(&enc.into_bytes())).unwrap();
                }
                let key = rng.below(800);
                let expect = match keys.iter().position(|&x| x == key) {
                    Some(p) => Access::Hit { phi: p as u64 + 1 },
                    None => {
                        keys.push(key);
                        Access::Cold {
                            stack_len: keys.len() as u64,
                        }
                    }
                };
                let phi = expect.phi();
                chain.clear();
                let scanned = if phi > 1 {
                    update::backward_chain(phi, k, &mut ref_rng, &mut chain)
                } else {
                    0
                };
                let mut dest = phi as usize;
                for &src in chain.iter().rev() {
                    keys[dest - 1] = keys[src as usize - 1];
                    dest = src as usize;
                }
                keys[0] = key;
                assert_eq!(s.access(key, 1), expect, "K={k} ref {i}");
                assert_eq!(s.last_chain_len(), chain.len() as u64, "K={k} ref {i}");
                assert_eq!(s.last_scanned(), scanned, "K={k} ref {i}");
            }
            let order: Vec<u64> = s.iter().map(|e| e.key).collect();
            assert_eq!(order, keys, "K={k}");
        }
    }

    #[test]
    fn observer_sees_descending_chain_with_pre_update_sizes() {
        for updater in UpdaterKind::ALL {
            let mut s = stack(8.0, updater);
            for key in 0..200u64 {
                s.access(key, key as u32 + 1);
            }
            // The deepest key sits at the bottom; record what each chain
            // position held before the update.
            let before: Vec<u32> = s.iter().map(|e| e.size).collect();
            let mut steps = Vec::new();
            s.access_with(0, 1, |x, e| steps.push((x, e.size)));
            assert_eq!(steps.len() as u64, s.last_chain_len(), "{updater:?}");
            assert_eq!(steps.last().map(|&(x, _)| x), Some(1), "{updater:?}");
            assert!(steps.windows(2).all(|w| w[0].0 > w[1].0), "{updater:?}");
            for (x, size) in steps {
                assert_eq!(size, before[x as usize - 1], "{updater:?} x={x}");
            }
        }
    }
}
