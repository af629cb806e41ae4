//! Property-based oracle check for the NSGA-II sorting kernels: over
//! random objective sets (with random constraint violations), the fast
//! non-dominated sort must produce exactly the layering a brute-force
//! O(n²) peeling of the dominance relation produces, the incrementally
//! kept archive front must equal a brute-force non-dominated filter
//! after every insertion, and the crowding distance must keep its
//! boundary/positivity invariants.

use accordion_opt::nsga::{
    crowding_distance, dominates, fast_nondominated_sort, front_insert, pareto_dominates,
};
use proptest::prelude::*;

/// Decodes a flat draw of small integers into `(objectives,
/// violations)`. Small discrete coordinates maximize ties and
/// dominance chains — the cases where a buggy sort and the oracle
/// diverge.
fn decode(raw: &[u32]) -> (Vec<[f64; 3]>, Vec<f64>) {
    let n = raw.len() / 4;
    let mut objs = Vec::with_capacity(n);
    let mut viols = Vec::with_capacity(n);
    for q in raw.chunks_exact(4) {
        objs.push([f64::from(q[0]), f64::from(q[1]), f64::from(q[2])]);
        // Three out of four points are feasible; the rest carry a
        // small discrete violation so ties happen there too.
        viols.push(if q[3] % 4 == 0 {
            f64::from(q[3] / 4 + 1)
        } else {
            0.0
        });
    }
    (objs, viols)
}

/// Brute-force layering: repeatedly peel the set of points dominated
/// by nobody still standing. The O(n²)-per-layer oracle the fast sort
/// must agree with.
fn brute_force_fronts(objs: &[[f64; 3]], viols: &[f64]) -> Vec<Vec<usize>> {
    let mut remaining: Vec<usize> = (0..objs.len()).collect();
    let mut fronts = Vec::new();
    while !remaining.is_empty() {
        let layer: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                remaining
                    .iter()
                    .all(|&j| !dominates(&objs[j], viols[j], &objs[i], viols[i]))
            })
            .collect();
        assert!(!layer.is_empty(), "dominance must be acyclic");
        remaining.retain(|i| !layer.contains(i));
        fronts.push(layer);
    }
    fronts
}

proptest! {
    /// The fast sort's layering equals the brute-force peeling,
    /// front by front, index by index.
    #[test]
    fn fast_sort_matches_brute_force(raw in proptest::collection::vec(0u32..8, 4..120)) {
        let (objs, viols) = decode(&raw);
        let fast = fast_nondominated_sort(&objs, &viols);
        let brute = brute_force_fronts(&objs, &viols);
        prop_assert_eq!(fast, brute);
    }

    /// After every insertion of a random sequence, the incrementally
    /// kept front holds exactly the points of the sequence so far that
    /// no point of it dominates — ties and duplicates included.
    #[test]
    fn incremental_front_matches_brute_force(raw in proptest::collection::vec(0u32..6, 4..160)) {
        let (objs, viols) = decode(&raw);
        let mut front: Vec<(usize, [f64; 3], f64)> = Vec::new();
        for n in 0..objs.len() {
            front_insert(&mut front, n, objs[n], viols[n]);
            let mut kept: Vec<usize> = front.iter().map(|&(i, _, _)| i).collect();
            kept.sort_unstable();
            let brute: Vec<usize> = (0..=n)
                .filter(|&i| (0..=n).all(|j| !dominates(&objs[j], viols[j], &objs[i], viols[i])))
                .collect();
            prop_assert_eq!(kept, brute, "after inserting point {}", n);
        }
    }

    /// Within any front no member dominates another, and every member
    /// of front k+1 is dominated by someone in front k.
    #[test]
    fn fronts_are_antichains_with_witnesses(raw in proptest::collection::vec(0u32..6, 4..100)) {
        let (objs, viols) = decode(&raw);
        let fronts = fast_nondominated_sort(&objs, &viols);
        let total: usize = fronts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, objs.len(), "every point ranked exactly once");
        for (k, front) in fronts.iter().enumerate() {
            for &i in front {
                for &j in front {
                    prop_assert!(
                        !dominates(&objs[i], viols[i], &objs[j], viols[j]),
                        "front {} is not an antichain: {} dominates {}", k, i, j
                    );
                }
                if k > 0 {
                    prop_assert!(
                        fronts[k - 1].iter().any(|&w|
                            dominates(&objs[w], viols[w], &objs[i], viols[i])),
                        "point {} in front {} has no dominating witness above", i, k
                    );
                }
            }
        }
    }

    /// Pareto dominance is irreflexive and antisymmetric, and strict
    /// dominance implies constraint domination between feasibles.
    #[test]
    fn dominance_relation_invariants(raw in proptest::collection::vec(0u32..8, 6..60)) {
        let (objs, _) = decode(&raw);
        for a in &objs {
            prop_assert!(!pareto_dominates(a, a), "irreflexive");
        }
        for a in &objs {
            for b in &objs {
                if pareto_dominates(a, b) {
                    prop_assert!(!pareto_dominates(b, a), "antisymmetric");
                    prop_assert!(dominates(a, 0.0, b, 0.0));
                }
            }
        }
    }

    /// Crowding distance: per objective extremes are infinite, and no
    /// distance is negative or NaN.
    #[test]
    fn crowding_invariants(raw in proptest::collection::vec(0u32..16, 12..80)) {
        let (objs, viols) = decode(&raw);
        for front in fast_nondominated_sort(&objs, &viols) {
            let dist = crowding_distance(&front, &objs);
            prop_assert_eq!(dist.len(), front.len());
            for &d in &dist {
                prop_assert!(d >= 0.0 && !d.is_nan(), "distance {}", d);
            }
            if front.len() <= 2 {
                prop_assert!(dist.iter().all(|d| d.is_infinite()));
            } else {
                prop_assert!(dist.iter().filter(|d| d.is_infinite()).count() >= 2,
                    "at least the two boundary points are infinite");
            }
        }
    }
}
