//! Candidate layer generation and the two-layer symmetry reduction.
//!
//! **Unrestricted mode.** A layer is a non-empty matching of the `n`
//! wires, all comparators standard (`Cmp` with `a < b`); by Knuth's
//! standardization theorem this loses no depth-optimal network. Two
//! sound reductions shrink the prefix space:
//!
//! * *First layer.* Adding a comparator on two wires untouched by the
//!   first layer cannot break sorting (the incoming set — the full cube —
//!   is closed under every transposition, so the extended layer's image
//!   is a subset of the original image), and conjugating by a wire
//!   permutation followed by re-standardization maps any maximal first
//!   layer to the canonical `(0,1)(2,3)…`. Hence the first layer is
//!   fixed to [`canonical_first_layer`].
//! * *Second layer.* Wire permutations that stabilize the first layer
//!   (permuting its pairs, swapping within pairs, fixing the odd free
//!   wire) act on candidate second layers; one representative per orbit
//!   suffices ([`second_layer_reps`]). For `n = 8` this cuts 763
//!   matchings to a handful of prefixes.
//!
//! Beyond the first two layers no symmetry survives in general, so the
//! deeper move set is **all** non-empty matchings ([`all_matchings`]) —
//! completeness is unconditional, and the engine's subsumption pruning
//! removes dominated moves dynamically.
//!
//! **Shuffle-legal mode.** A layer routes by `σ` and then applies one op
//! per register pair; the move set is
//! [`ShuffleNetwork::legal_stage_vectors`] over `{+,-,0,1}`. For the
//! *first* stage the extension argument above applies (the full cube is
//! closed under within-pair swaps after routing), and a `Swap` acts on
//! the full cube exactly like `Pass`, so first stages range over
//! comparator orientations `{+,-}` only ([`shuffle_first_stages`]).

use snet_core::element::{Element, ElementKind};
use snet_core::perm::Permutation;
use snet_core::zeroone::ZeroOneSet;
use snet_topology::ShuffleNetwork;

/// One candidate layer: the elements applied to the state (after the
/// mode's route, if any), plus — in shuffle mode — the stage op vector
/// the layer reconstructs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layer {
    /// Elements on distinct wire pairs; `Pass` ops are omitted.
    pub elements: Vec<Element>,
    /// Shuffle-mode stage op vector (`None` in unrestricted mode).
    pub stage_ops: Option<Vec<ElementKind>>,
}

impl Layer {
    /// An unrestricted layer from standard comparator pairs.
    pub fn of_pairs(pairs: &[(u32, u32)]) -> Self {
        Layer {
            elements: pairs.iter().map(|&(a, b)| Element::cmp(a, b)).collect(),
            stage_ops: None,
        }
    }

    /// A shuffle-mode layer from a stage op vector (applied after `σ`).
    pub fn of_stage(ops: Vec<ElementKind>) -> Self {
        let elements = ops
            .iter()
            .enumerate()
            .filter(|(_, k)| **k != ElementKind::Pass)
            .map(|(k, &kind)| Element { a: 2 * k as u32, b: 2 * k as u32 + 1, kind })
            .collect();
        Layer { elements, stage_ops: Some(ops) }
    }
}

/// The move set of one search: an optional per-layer route (the shuffle)
/// and the candidate layers, identified by index.
#[derive(Debug, Clone)]
pub struct MoveSet {
    /// Route applied before every layer's elements (`σ` in shuffle mode).
    pub route: Option<Permutation>,
    /// Candidate layers; a move id is an index into this vector.
    pub moves: Vec<Layer>,
}

impl MoveSet {
    /// Unrestricted move set: every non-empty matching of `n` wires.
    pub fn unrestricted(n: usize) -> Self {
        MoveSet {
            route: None,
            moves: all_matchings(n).into_iter().map(|m| Layer::of_pairs(&m)).collect(),
        }
    }

    /// Shuffle-legal move set: every `{+,-,0,1}` stage vector.
    pub fn shuffle_legal(n: usize) -> Self {
        use ElementKind::{Cmp, CmpRev, Pass, Swap};
        let moves = ShuffleNetwork::legal_stage_vectors(n, &[Cmp, CmpRev, Pass, Swap])
            .into_iter()
            .map(Layer::of_stage)
            .collect();
        MoveSet { route: Some(Permutation::shuffle(n)), moves }
    }

    /// Applies move `id` to the single vector index `x`: route the index
    /// bits, then run the layer's elements.
    pub fn apply_to_index(&self, id: u32, x: u64) -> u64 {
        let mut y = x;
        if let Some(route) = &self.route {
            let mut r = 0u64;
            for (w, &img) in route.images().iter().enumerate() {
                r |= ((y >> w) & 1) << img;
            }
            y = r;
        }
        for e in &self.moves[id as usize].elements {
            y = ZeroOneSet::apply_element_to_index(y, e);
        }
        y
    }
}

/// The last-layer oracle: for every vector index `x` of the `2^n` cube,
/// the bitset of move ids that map `x` to a sorted vector. One move sorts
/// a state iff it sorts every member, so the moves that sort a state are
/// the AND of its members' rows — a final layer is found (or ruled out)
/// by table lookup instead of one set application per candidate.
#[derive(Debug, Clone)]
pub struct SortingMoveTable {
    row_words: usize,
    rows: Vec<u64>,
}

impl SortingMoveTable {
    /// Builds the table for `moves` on `n` wires (`2^n` rows of
    /// `⌈moves / 64⌉` words; 128 × 4 at `n = 7`, 256 × 12 at `n = 8`).
    pub fn new(n: usize, moves: &MoveSet) -> Self {
        let row_words = moves.moves.len().div_ceil(64);
        let mut rows = vec![0u64; row_words << n];
        for x in 0..1u64 << n {
            let row = &mut rows[x as usize * row_words..][..row_words];
            for id in 0..moves.moves.len() as u32 {
                let y = moves.apply_to_index(id, x);
                if y == ZeroOneSet::sorted_index(n, y.count_ones() as usize) {
                    row[id as usize >> 6] |= 1 << (id & 63);
                }
            }
        }
        SortingMoveTable { row_words, rows }
    }

    /// Fills `acc` with the bitset of move ids that map every member of
    /// the non-empty `state` to a sorted vector (bit `id & 63` of word
    /// `id >> 6`), stopping as soon as the intersection is empty.
    pub fn sorting_moves(&self, state: &ZeroOneSet, acc: &mut Vec<u64>) {
        debug_assert!(!state.is_empty(), "reachable sets are never empty");
        acc.clear();
        acc.resize(self.row_words, u64::MAX);
        for x in state.iter() {
            let row = &self.rows[x as usize * self.row_words..][..self.row_words];
            let mut any = 0;
            for (a, &r) in acc.iter_mut().zip(row) {
                *a &= r;
                any |= *a;
            }
            if any == 0 {
                return;
            }
        }
    }

    /// The lowest move id that sorts `state`, if any (`acc` is scratch).
    pub fn first_sorting_move(&self, state: &ZeroOneSet, acc: &mut Vec<u64>) -> Option<u32> {
        self.sorting_moves(state, acc);
        acc.iter().position(|&w| w != 0).map(|i| (i as u32) << 6 | acc[i].trailing_zeros())
    }
}

/// All non-empty matchings of `n` wires as standard pair lists, in a
/// fixed deterministic order. Matching counts are the telephone numbers
/// minus one: 2, 3, 9, 25, 75, 231, 763 for `n = 2..=8`.
pub fn all_matchings(n: usize) -> Vec<Vec<(u32, u32)>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    let free: Vec<u32> = (0..n as u32).collect();
    extend_matchings(&free, &mut current, &mut out);
    out.retain(|m| !m.is_empty());
    out
}

fn extend_matchings(free: &[u32], current: &mut Vec<(u32, u32)>, out: &mut Vec<Vec<(u32, u32)>>) {
    let Some((&u, rest)) = free.split_first() else {
        out.push(current.clone());
        return;
    };
    // Branch 1: wire `u` stays unmatched.
    extend_matchings(rest, current, out);
    // Branch 2: pair `u` with each later free wire.
    for (i, &v) in rest.iter().enumerate() {
        let remaining: Vec<u32> =
            rest.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &w)| w).collect();
        current.push((u, v));
        extend_matchings(&remaining, current, out);
        current.pop();
    }
}

/// The canonical maximal first layer `(0,1)(2,3)…` (odd `n`: the last
/// wire stays free).
pub fn canonical_first_layer(n: usize) -> Layer {
    let pairs: Vec<(u32, u32)> = (0..n as u32 / 2).map(|k| (2 * k, 2 * k + 1)).collect();
    Layer::of_pairs(&pairs)
}

/// Wire maps of the stabilizer of the canonical first layer: permute the
/// `p = ⌊n/2⌋` pairs, independently swap within each pair, fix the free
/// wire of odd `n`. Order `2^p · p!`.
fn first_layer_stabilizer(n: usize) -> Vec<Vec<u32>> {
    let p = n / 2;
    let mut pair_perms: Vec<Vec<usize>> = Vec::new();
    permutations(p, &mut (0..p).collect::<Vec<_>>(), 0, &mut pair_perms);
    let mut out = Vec::with_capacity(pair_perms.len() << p);
    for perm in &pair_perms {
        for swaps in 0..(1u32 << p) {
            let mut map = vec![0u32; n];
            for (k, &target) in perm.iter().enumerate() {
                let flip = (swaps >> k) & 1;
                map[2 * k] = (2 * target) as u32 + flip;
                map[2 * k + 1] = (2 * target) as u32 + (1 - flip);
            }
            if n % 2 == 1 {
                map[n - 1] = (n - 1) as u32;
            }
            out.push(map);
        }
    }
    out
}

fn permutations(p: usize, scratch: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == p {
        out.push(scratch.clone());
        return;
    }
    for i in k..p {
        scratch.swap(k, i);
        permutations(p, scratch, k + 1, out);
        scratch.swap(k, i);
    }
}

/// Applies a wire map to a matching and re-standardizes: each pair maps
/// to `(min, max)` of its images, and the pair list is sorted.
fn transform_matching(m: &[(u32, u32)], map: &[u32]) -> Vec<(u32, u32)> {
    let mut t: Vec<(u32, u32)> = m
        .iter()
        .map(|&(a, b)| {
            let (x, y) = (map[a as usize], map[b as usize]);
            (x.min(y), x.max(y))
        })
        .collect();
    t.sort_unstable();
    t
}

/// Second-layer orbit representatives: the lexicographically smallest
/// member of each stabilizer orbit over all non-empty matchings, in the
/// deterministic [`all_matchings`] order.
pub fn second_layer_reps(n: usize) -> Vec<Layer> {
    let stab = first_layer_stabilizer(n);
    let mut reps = Vec::new();
    for m in all_matchings(n) {
        let mut sorted = m.clone();
        sorted.sort_unstable();
        let is_rep = stab.iter().all(|g| transform_matching(&m, g) >= sorted);
        if is_rep {
            reps.push(Layer::of_pairs(&m));
        }
    }
    reps
}

/// Shuffle-mode first stages: comparator orientations `{+,-}` on every
/// pair (Pass is dominated by the extension argument, Swap acts like
/// Pass on the full cube).
pub fn shuffle_first_stages(n: usize) -> Vec<Layer> {
    ShuffleNetwork::legal_stage_vectors(n, &[ElementKind::Cmp, ElementKind::CmpRev])
        .into_iter()
        .map(Layer::of_stage)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_counts_are_telephone_numbers_minus_one() {
        // T(n) = 2, 4, 10, 26, 76, 232, 764 including the empty matching.
        for (n, count) in [(2usize, 1usize), (3, 3), (4, 9), (5, 25), (6, 75), (7, 231), (8, 763)] {
            let ms = all_matchings(n);
            assert_eq!(ms.len(), count, "n={n}");
            // All standard, disjoint, non-empty.
            for m in &ms {
                assert!(!m.is_empty());
                let mut used = vec![false; n];
                for &(a, b) in m {
                    assert!(a < b && (b as usize) < n);
                    assert!(!used[a as usize] && !used[b as usize]);
                    used[a as usize] = true;
                    used[b as usize] = true;
                }
            }
        }
    }

    #[test]
    fn stabilizer_has_order_2p_pfact() {
        assert_eq!(first_layer_stabilizer(4).len(), 8); // 2^2 · 2!
        assert_eq!(first_layer_stabilizer(5).len(), 8);
        assert_eq!(first_layer_stabilizer(6).len(), 48); // 2^3 · 3!
        assert_eq!(first_layer_stabilizer(8).len(), 384); // 2^4 · 4!
                                                          // Every map stabilizes the canonical matching's pair set.
        let l1: Vec<(u32, u32)> =
            canonical_first_layer(6).elements.iter().map(|e| (e.a, e.b)).collect();
        for g in first_layer_stabilizer(6) {
            assert_eq!(transform_matching(&l1, &g), {
                let mut s = l1.clone();
                s.sort_unstable();
                s
            });
        }
    }

    #[test]
    fn second_layer_reduction_is_substantial_and_sound() {
        for n in [4usize, 5, 6, 7, 8] {
            let all = all_matchings(n).len();
            let reps = second_layer_reps(n);
            assert!(!reps.is_empty());
            assert!(reps.len() < all, "n={n}: {} reps of {all}", reps.len());
            // Each orbit is represented: transforming any matching by any
            // stabilizer element lands in some rep's orbit (spot check by
            // canonicalizing both sides).
            let stab = first_layer_stabilizer(n);
            let canon = |m: &[(u32, u32)]| {
                stab.iter().map(|g| transform_matching(m, g)).min().expect("nonempty stabilizer")
            };
            let rep_canons: std::collections::HashSet<_> = reps
                .iter()
                .map(|l| {
                    let pairs: Vec<(u32, u32)> = l.elements.iter().map(|e| (e.a, e.b)).collect();
                    canon(&pairs)
                })
                .collect();
            for m in all_matchings(n) {
                assert!(rep_canons.contains(&canon(&m)), "n={n}: orbit of {m:?} unrepresented");
            }
        }
    }

    #[test]
    fn sorting_move_table_agrees_with_set_application() {
        use snet_core::zeroone::CompiledLayer;
        // Seeded xorshift: the property is checked on the same states
        // every run.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let models = (2..=7usize)
            .map(|n| (n, MoveSet::unrestricted(n)))
            .chain([4usize, 8].map(|n| (n, MoveSet::shuffle_legal(n))));
        let mut outcomes = [0usize; 2];
        for (n, moves) in models {
            let table = SortingMoveTable::new(n, &moves);
            let compiled: Vec<CompiledLayer> = moves
                .moves
                .iter()
                .map(|l| CompiledLayer::compile(n, moves.route.as_ref(), &l.elements))
                .collect();
            let (mut image, mut scratch) = (ZeroOneSet::empty(n), ZeroOneSet::empty(n));
            let mut acc = Vec::new();
            for trial in 0..120 {
                // Reachable-style states: the sorted vectors plus a few
                // (or, every third trial, about half) of the other vectors.
                let mut state = ZeroOneSet::sorted_only(n);
                let cube = 1u64 << n;
                if trial % 3 == 2 {
                    (0..cube).filter(|_| next() & 1 == 1).for_each(|x| state.insert(x));
                } else {
                    (0..next() % (n as u64 + 1)).for_each(|_| state.insert(next() % cube));
                }
                table.sorting_moves(&state, &mut acc);
                let mut first = None;
                for (id, layer) in compiled.iter().enumerate() {
                    layer.apply(&state, &mut image, &mut scratch);
                    let sorts = image.is_sorted_only();
                    let listed = (acc[id >> 6] >> (id & 63)) & 1 == 1;
                    assert_eq!(listed, sorts, "n={n} move {id} on {:?}", state.words());
                    if sorts && first.is_none() {
                        first = Some(id as u32);
                    }
                    outcomes[sorts as usize] += 1;
                }
                assert_eq!(table.first_sorting_move(&state, &mut acc), first, "n={n}");
            }
        }
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "both verdicts exercised: {outcomes:?}");
    }

    #[test]
    fn shuffle_moves_and_first_stages() {
        let ms = MoveSet::shuffle_legal(4);
        assert_eq!(ms.moves.len(), 16);
        assert!(ms.route.is_some());
        // Pass ops are dropped from the element form.
        let pass_pass = ms
            .moves
            .iter()
            .find(|l| l.stage_ops.as_deref() == Some(&[ElementKind::Pass, ElementKind::Pass][..]))
            .expect("all-pass stage exists");
        assert!(pass_pass.elements.is_empty());
        assert_eq!(shuffle_first_stages(4).len(), 4);
        assert_eq!(shuffle_first_stages(8).len(), 16);
    }
}
