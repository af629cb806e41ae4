//! `FrontSet::measured` under a pool: the memo's singleflight holds a
//! measurement whose kernel runs open a pool map of their own, while
//! other pool tasks wait on the same key. Its own test binary, so no
//! other test moves the process-wide `apps.front_cache` counters.

use accordion_apps::harness::FrontSet;
use accordion_apps::hotspot::Hotspot;
use accordion_telemetry::registry;
use std::sync::Arc;

#[test]
fn nested_pool_under_the_memo_measures_once() {
    let misses = registry::global().counter("apps.front_cache.misses");
    let before = misses.get();
    let app = Hotspot::paper_default();
    let sets = accordion_pool::par_map_indexed_with(4, 8, |_| FrontSet::measured(&app));
    assert_eq!(
        misses.get() - before,
        1,
        "one measurement for eight callers"
    );
    for set in &sets {
        assert!(Arc::ptr_eq(set, &sets[0]), "every caller shares one Arc");
    }
}
