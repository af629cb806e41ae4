//! The seeded, byte-deterministic NSGA-II loop.
//!
//! Classic NSGA-II — fast non-dominated sort, crowding distance,
//! binary tournament, uniform crossover, per-knob mutation — with
//! three repo-specific commitments:
//!
//! * **Determinism.** Every random draw comes from labelled
//!   [`SeedStream`] substreams consumed on the coordinating thread;
//!   candidate evaluation fans out through the ordered pool map; all
//!   tie-breaks bottom out in the candidates' integer total order.
//!   Same seed ⇒ byte-identical report at any `--jobs`.
//! * **An elitist archive.** Every point ever evaluated is kept, and
//!   the reported front is the non-dominated set *of the archive*, not
//!   of the last population. Crowding truncation can therefore never
//!   lose a non-dominated point, and because generation 0 is the
//!   deterministic scout grid, the final front provably
//!   dominates-or-ties every point of that grid. The front is kept as
//!   points arrive ([`front_insert`]); a unit test pins it, generation
//!   by generation, against a brute-force recount of the archive.
//! * **Constraint domination** (Deb). Feasible beats infeasible;
//!   infeasible points compare by total violation; feasible points
//!   compare by Pareto dominance on `[power, time, quality deficit]`.
//!
//! The sort/crowding/front kernels are exported so the property tests
//! can pit them against brute-force O(n²) oracles.

use crate::eval::{Evaluator, OperatingPoint};
use crate::space::{Candidate, Constraints, KnobSpace};
use accordion_stats::rng::{SeedStream, StreamRng};
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{counter, flight, flight_track, gauge, span};
use rand::Rng;

/// Per-knob mutation probability.
const MUTATION_P: f64 = 0.35;

/// Search configuration. `scout_steps` sizes the generation-0 grid
/// (see [`KnobSpace::scout_grid`]); everything else is standard
/// NSGA-II.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Root seed for every random draw of the search.
    pub seed: u64,
    /// Population size (and offspring per generation).
    pub population: usize,
    /// Number of breeding generations after the scout grid.
    pub generations: usize,
    /// Steps per continuous knob in the generation-0 scout grid.
    pub scout_steps: u32,
    /// Knob bounds.
    pub space: KnobSpace,
    /// Constraint model.
    pub constraints: Constraints,
}

/// Per-generation accounting for the report and the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStat {
    /// Generation index (0 = scout grid).
    pub generation: u64,
    /// Fresh evaluator calls (memo misses) this generation.
    pub evals: u64,
    /// Evaluator memo hits this generation.
    pub cache_hits: u64,
    /// Archive rank-0 front size after this generation.
    pub front: u64,
}

/// The search result: the archive-wide non-dominated front (sorted by
/// candidate knobs — deterministic) plus per-generation accounting.
#[derive(Debug, Clone)]
pub struct OptOutcome {
    /// Non-dominated points of the full evaluation archive.
    pub front: Vec<OperatingPoint>,
    /// Points evaluated across the whole search (archive size).
    pub archive_len: usize,
    /// Per-generation accounting, generation 0 first.
    pub generations: Vec<GenStat>,
}

/// Strict Pareto dominance on minimization objectives: `a` no worse
/// everywhere and strictly better somewhere.
pub fn pareto_dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    let mut strict = false;
    for m in 0..3 {
        if a[m] > b[m] {
            return false;
        }
        if a[m] < b[m] {
            strict = true;
        }
    }
    strict
}

/// Deb's constraint domination: feasible over infeasible, lower
/// violation between infeasibles, Pareto dominance between feasibles.
pub fn dominates(a: &[f64; 3], a_viol: f64, b: &[f64; 3], b_viol: f64) -> bool {
    match (a_viol > 0.0, b_viol > 0.0) {
        (false, true) => true,
        (true, false) => false,
        (true, true) => a_viol < b_viol,
        (false, false) => pareto_dominates(a, b),
    }
}

/// Fast non-dominated sort (Deb et al. 2002): returns fronts of
/// indices, rank 0 first, each front in ascending index order.
pub fn fast_nondominated_sort(objs: &[[f64; 3]], viols: &[f64]) -> Vec<Vec<usize>> {
    let n = objs.len();
    assert_eq!(n, viols.len(), "one violation per objective vector");
    let mut dominated_by: Vec<usize> = vec![0; n]; // how many dominate i
    let mut dominates_set: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if dominates(&objs[i], viols[i], &objs[j], viols[j]) {
                dominates_set[i].push(j);
                dominated_by[j] += 1;
            } else if dominates(&objs[j], viols[j], &objs[i], viols[i]) {
                dominates_set[j].push(i);
                dominated_by[i] += 1;
            }
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| dominated_by[i] == 0).collect();
    while !current.is_empty() {
        let mut next: Vec<usize> = Vec::new();
        for &i in &current {
            for &j in &dominates_set[i] {
                dominated_by[j] -= 1;
                if dominated_by[j] == 0 {
                    next.push(j);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// Crowding distance of each member of one front (indices into
/// `objs`). Boundary points get `f64::INFINITY`; interior points the
/// usual normalized neighbour-gap sum. Sorting is stable with index
/// tie-breaks, so equal objective values crowd deterministically.
pub fn crowding_distance(front: &[usize], objs: &[[f64; 3]]) -> Vec<f64> {
    let n = front.len();
    let mut dist = vec![0.0f64; n];
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    // `m` walks the objective axes, not `objs` itself — the iterator
    // form clippy suggests would iterate the wrong dimension.
    #[allow(clippy::needless_range_loop)]
    for m in 0..3 {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objs[front[a]][m]
                .total_cmp(&objs[front[b]][m])
                .then(front[a].cmp(&front[b]))
        });
        let lo = objs[front[order[0]]][m];
        let hi = objs[front[order[n - 1]]][m];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        if hi > lo {
            for k in 1..n - 1 {
                let gap = objs[front[order[k + 1]]][m] - objs[front[order[k - 1]]][m];
                dist[order[k]] += gap / (hi - lo);
            }
        }
    }
    dist
}

/// `(rank, crowding)` per point, from one sort + per-front crowding.
fn rank_and_crowd(objs: &[[f64; 3]], viols: &[f64]) -> Vec<(usize, f64)> {
    let mut out = vec![(0usize, 0.0f64); objs.len()];
    for (rank, front) in fast_nondominated_sort(objs, viols).iter().enumerate() {
        let dist = crowding_distance(front, objs);
        for (&i, &d) in front.iter().zip(&dist) {
            out[i] = (rank, d);
        }
    }
    out
}

/// Binary tournament: lower rank wins, then higher crowding, then
/// lower index (the deterministic tie-break of last resort).
fn tournament(rng: &mut StreamRng, ranked: &[(usize, f64)]) -> usize {
    let i = rng.random_below(ranked.len());
    let j = rng.random_below(ranked.len());
    let better = |a: usize, b: usize| {
        let (ra, ca) = ranked[a];
        let (rb, cb) = ranked[b];
        match ra.cmp(&rb).then(cb.total_cmp(&ca)) {
            std::cmp::Ordering::Less => a,
            std::cmp::Ordering::Greater => b,
            std::cmp::Ordering::Equal => a.min(b),
        }
    };
    better(i, j)
}

/// Mutates one integer knob: half the time a local step of up to an
/// eighth of the range, half the time a uniform re-draw — local
/// refinement with an escape hatch out of local optima.
fn mutate_knob(rng: &mut StreamRng, v: u32, (lo, hi): (u32, u32)) -> u32 {
    if lo >= hi {
        return lo;
    }
    if rng.random_bool(0.5) {
        let max_step = ((hi - lo) / 8).max(1);
        let step = rng.random_range(1..=max_step);
        if rng.random_bool(0.5) {
            v.saturating_add(step).min(hi)
        } else {
            v.saturating_sub(step).max(lo)
        }
    } else {
        rng.random_range(lo..=hi)
    }
}

/// One child: tournament × 2, uniform crossover, per-knob mutation,
/// clamp into the space.
fn breed(
    rng: &mut StreamRng,
    pop: &[OperatingPoint],
    ranked: &[(usize, f64)],
    space: &KnobSpace,
) -> Candidate {
    let a = pop[tournament(rng, ranked)].candidate;
    let b = pop[tournament(rng, ranked)].candidate;
    let pick = |rng: &mut StreamRng, x, y| if rng.random_bool(0.5) { x } else { y };
    let mut c = Candidate {
        vdd_mv: pick(rng, a.vdd_mv, b.vdd_mv),
        clusters: pick(rng, a.clusters, b.clusters),
        size_milli: pick(rng, a.size_milli, b.size_milli),
        gb_centi: pick(rng, a.gb_centi, b.gb_centi),
    };
    if rng.random_bool(MUTATION_P) {
        c.vdd_mv = mutate_knob(rng, c.vdd_mv, space.vdd_mv);
    }
    if rng.random_bool(MUTATION_P) {
        c.clusters = mutate_knob(rng, c.clusters, space.clusters);
    }
    if rng.random_bool(MUTATION_P) {
        c.size_milli = mutate_knob(rng, c.size_milli, space.size_milli);
    }
    if rng.random_bool(MUTATION_P) {
        c.gb_centi = mutate_knob(rng, c.gb_centi, space.gb_centi);
    }
    space.clamp(c)
}

/// NSGA-II environmental selection: keep whole fronts while they fit,
/// truncate the straddling front by descending crowding (index
/// ascending on ties). Input order is preserved within the survivors
/// of each front.
fn environmental_select(
    mut points: Vec<OperatingPoint>,
    target: usize,
    cons: &Constraints,
) -> Vec<OperatingPoint> {
    // Dedupe by candidate: elitism plus a finite integer space means
    // duplicates accumulate, and identical points would crowd each
    // other to zero distance.
    let mut seen: Vec<Candidate> = Vec::new();
    points.retain(|p| {
        if seen.contains(&p.candidate) {
            false
        } else {
            seen.push(p.candidate);
            true
        }
    });
    if points.len() <= target {
        return points;
    }
    let objs: Vec<[f64; 3]> = points.iter().map(OperatingPoint::objectives).collect();
    let viols: Vec<f64> = points.iter().map(|p| p.violation(cons)).collect();
    let mut keep: Vec<usize> = Vec::with_capacity(target);
    for front in fast_nondominated_sort(&objs, &viols) {
        if keep.len() + front.len() <= target {
            keep.extend_from_slice(&front);
        } else {
            let dist = crowding_distance(&front, &objs);
            let mut order: Vec<usize> = (0..front.len()).collect();
            order.sort_by(|&a, &b| dist[b].total_cmp(&dist[a]).then(front[a].cmp(&front[b])));
            for &k in order.iter().take(target - keep.len()) {
                keep.push(front[k]);
            }
            break;
        }
    }
    keep.sort_unstable();
    keep.into_iter().map(|i| points[i].clone()).collect()
}

/// Inserts one archived point into `front`, the non-dominated set of
/// every point inserted so far (ties kept): a newcomer dominated by a
/// member is dropped, otherwise it evicts the members it dominates and
/// joins. O(front) per point, and exact: constraint domination is a
/// strict partial order (irreflexive, transitive) on finite values, so
/// any archive point dominating the newcomer is itself dominated by,
/// or is, a front member, which then dominates the newcomer too.
pub fn front_insert<T>(front: &mut Vec<(T, [f64; 3], f64)>, item: T, objs: [f64; 3], viol: f64) {
    debug_assert!(
        objs.iter().all(|v| v.is_finite()) && viol.is_finite(),
        "non-finite objectives break transitivity: {objs:?} / {viol}"
    );
    if front.iter().any(|(_, o, v)| dominates(o, *v, &objs, viol)) {
        return;
    }
    front.retain(|(_, o, v)| !dominates(&objs, viol, o, *v));
    front.push((item, objs, viol));
}

/// Runs the search: scout grid as generation 0, then
/// `cfg.generations` NSGA-II generations, all candidate evaluation
/// through `eval`'s memo over `workers` pool threads.
pub fn optimize(eval: &Evaluator, cfg: &OptConfig, workers: usize) -> OptOutcome {
    let root = SeedStream::new(cfg.seed);
    let mut archived: std::collections::HashSet<Candidate> = std::collections::HashSet::new();
    let mut front: Vec<(OperatingPoint, [f64; 3], f64)> = Vec::new();
    let mut gens: Vec<GenStat> = Vec::new();

    let mut run_generation = |g: u64, cands: &[Candidate]| {
        let _span = span!("opt.generation");
        let _track = flight_track!("opt/gen{}", g);
        let (e0, h0, _, _) = eval.stats();
        let points = eval.batch(cands, workers);
        let (e1, h1, _, _) = eval.stats();
        for p in &points {
            if archived.insert(p.candidate) {
                let (objs, viol) = (p.objectives(), p.violation(&cfg.constraints));
                front_insert(&mut front, p.clone(), objs, viol);
            }
        }
        let front = front.len() as u64;
        counter!("opt.generations").inc();
        gauge!("opt.front_size").set(front as f64);
        flight!(SimEvent::OptGeneration {
            generation: g,
            evals: e1 - e0,
            cache_hits: h1 - h0,
            front,
        });
        gens.push(GenStat {
            generation: g,
            evals: e1 - e0,
            cache_hits: h1 - h0,
            front,
        });
        points
    };

    // Generation 0: the deterministic scout grid. Seeding the archive
    // with the full lattice is what makes the final front
    // dominate-or-tie the equivalent sweep by construction.
    let grid = cfg.space.scout_grid(cfg.scout_steps);
    let scout_points = run_generation(0, &grid);
    let mut pop = environmental_select(scout_points, cfg.population, &cfg.constraints);

    for g in 1..=cfg.generations {
        let mut rng = root.stream("gen", g as u64);
        let objs: Vec<[f64; 3]> = pop.iter().map(OperatingPoint::objectives).collect();
        let viols: Vec<f64> = pop.iter().map(|p| p.violation(&cfg.constraints)).collect();
        let ranked = rank_and_crowd(&objs, &viols);
        let children: Vec<Candidate> = (0..cfg.population)
            .map(|_| breed(&mut rng, &pop, &ranked, &cfg.space))
            .collect();
        let mut merged = pop;
        merged.extend(run_generation(g as u64, &children));
        pop = environmental_select(merged, cfg.population, &cfg.constraints);
    }

    // Candidates are unique in the archive, so this order is total.
    let mut front: Vec<OperatingPoint> = front.into_iter().map(|(p, _, _)| p).collect();
    front.sort_by_key(|p| p.candidate);
    OptOutcome {
        front,
        archive_len: archived.len(),
        generations: gens,
    }
}

/// Checks that every `grid` point is dominated-or-tied by some front
/// member under constraint domination ("tied" = equal objectives, or
/// the grid point is the front member). The acceptance gate behind the
/// report's `grid_check.dominated`.
pub fn front_dominates_grid(
    front: &[OperatingPoint],
    grid: &[OperatingPoint],
    cons: &Constraints,
) -> bool {
    grid.iter().all(|g| {
        let go = g.objectives();
        let gv = g.violation(cons);
        front.iter().any(|f| {
            let fo = f.objectives();
            let fv = f.violation(cons);
            dominates(&fo, fv, &go, gv) || (fo == go && fv == gv)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_chip::topology::Topology;

    /// Indices of the archive's non-dominated points (ties kept), in
    /// archive order: the all-pairs scan [`front_insert`] replaces.
    fn archive_front_indices(archive: &[OperatingPoint], cons: &Constraints) -> Vec<usize> {
        let objs: Vec<[f64; 3]> = archive.iter().map(OperatingPoint::objectives).collect();
        let viols: Vec<f64> = archive.iter().map(|p| p.violation(cons)).collect();
        (0..archive.len())
            .filter(|&i| {
                (0..archive.len()).all(|j| !dominates(&objs[j], viols[j], &objs[i], viols[i]))
            })
            .collect()
    }

    fn point(c: Candidate, power: f64, time: f64, quality: f64) -> OperatingPoint {
        OperatingPoint {
            candidate: c,
            f_safe_ghz: 1.0,
            f_run_ghz: 1.0,
            perr: 0.0,
            time_s: time,
            power_w: power,
            mips: 1.0,
            quality,
        }
    }

    fn cand(i: u32) -> Candidate {
        Candidate {
            vdd_mv: 300 + i,
            clusters: 1,
            size_milli: 1000,
            gb_centi: 1200,
        }
    }

    #[test]
    fn pareto_dominance_basics() {
        assert!(pareto_dominates(&[1.0, 1.0, 1.0], &[1.0, 2.0, 1.0]));
        assert!(!pareto_dominates(&[1.0, 1.0, 1.0], &[1.0, 1.0, 1.0]));
        assert!(!pareto_dominates(&[0.0, 2.0, 0.0], &[1.0, 1.0, 1.0]));
    }

    #[test]
    fn constraint_domination_ranks_feasible_first() {
        let worse = [9.0, 9.0, 9.0];
        let better = [1.0, 1.0, 1.0];
        assert!(dominates(&worse, 0.0, &better, 0.5));
        assert!(!dominates(&better, 0.5, &worse, 0.0));
        assert!(dominates(&worse, 0.1, &better, 0.5));
    }

    #[test]
    fn sort_layers_a_simple_chain() {
        let objs = [
            [1.0, 1.0, 1.0],
            [2.0, 2.0, 2.0],
            [3.0, 3.0, 3.0],
            [1.0, 3.0, 1.0],
        ];
        let viols = [0.0; 4];
        let fronts = fast_nondominated_sort(&objs, &viols);
        assert_eq!(fronts[0], vec![0]);
        assert_eq!(fronts[1], vec![1, 3]);
        assert_eq!(fronts[2], vec![2]);
    }

    #[test]
    fn crowding_rewards_boundary_and_spread() {
        let objs = [
            [0.0, 4.0, 0.0],
            [1.0, 1.0, 0.0],
            [2.0, 0.5, 0.0],
            [4.0, 0.0, 0.0],
        ];
        let front: Vec<usize> = (0..4).collect();
        let d = crowding_distance(&front, &objs);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[2].is_finite());
        assert!(d[1] > 0.0 && d[2] > 0.0);
    }

    #[test]
    fn environmental_select_keeps_best_and_dedupes() {
        let cons = Constraints::default();
        let pts = vec![
            point(cand(0), 1.0, 1.0, 1.0),
            point(cand(0), 1.0, 1.0, 1.0), // duplicate candidate
            point(cand(1), 2.0, 2.0, 1.0),
            point(cand(2), 3.0, 3.0, 1.0),
        ];
        let kept = environmental_select(pts, 2, &cons);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].candidate, cand(0));
        assert_eq!(kept[1].candidate, cand(1));
    }

    #[test]
    fn grid_check_accepts_ties_and_rejects_uncovered_points() {
        let cons = Constraints::default();
        let front = vec![point(cand(0), 1.0, 1.0, 1.0)];
        let tied = vec![point(cand(0), 1.0, 1.0, 1.0)];
        let dominated = vec![point(cand(1), 2.0, 2.0, 0.5)];
        let uncovered = vec![point(cand(2), 0.5, 3.0, 1.0)];
        assert!(front_dominates_grid(&front, &tied, &cons));
        assert!(front_dominates_grid(&front, &dominated, &cons));
        assert!(!front_dominates_grid(&front, &uncovered, &cons));
    }

    #[test]
    fn maintained_front_matches_a_full_archive_recount_every_generation() {
        const GENERATIONS: usize = 20;
        let eval = Evaluator::new(Topology::small(), 7200, 2, 0, "hotspot").expect("evaluator");
        let cfg = |generations| OptConfig {
            seed: 3,
            population: 12,
            generations,
            scout_steps: 3,
            space: KnobSpace::full(eval.max_clusters()),
            constraints: Constraints {
                quality_floor: Some(0.9),
                power_budget_w: Some(20.0),
                time_budget_s: None,
            },
        };
        // Runs share the evaluator and every generation's draws are
        // labelled by its index, so after the `k`-generation run the
        // memo holds exactly the archive of generations 0..=k.
        let mut recounts: Vec<u64> = Vec::new();
        for k in 0..=GENERATIONS {
            let out = optimize(&eval, &cfg(k), 2);
            let archive = eval.evaluated();
            assert_eq!(out.archive_len, archive.len(), "generation {k}");
            let brute = archive_front_indices(&archive, &cfg(k).constraints);
            recounts.push(brute.len() as u64);
            let mut expected: Vec<OperatingPoint> =
                brute.into_iter().map(|i| archive[i].clone()).collect();
            expected.sort_by_key(|p| p.candidate);
            assert_eq!(out.front, expected, "final front after generation {k}");
            let fronts: Vec<u64> = out.generations.iter().map(|g| g.front).collect();
            assert_eq!(fronts, recounts, "front sizes through generation {k}");
        }
        let archive = eval.evaluated();
        assert!(
            recounts[GENERATIONS] > 10,
            "a trivial front pins nothing: {recounts:?}"
        );
        assert!(
            archive
                .iter()
                .any(|p| p.violation(&cfg(0).constraints) > 0.0),
            "the archive must exercise constraint domination"
        );
    }
}
