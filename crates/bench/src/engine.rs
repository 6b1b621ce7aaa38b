//! The deterministic parallel sweep engine.
//!
//! Every figure of the evaluation is a sweep over independent
//! `(speed, tour seed, dataset size, …)` points, and every point is a
//! deterministic simulation (DESIGN.md §5). This module exploits that:
//!
//! * [`Engine::run`] fans a figure's sweep points out across scoped worker
//!   threads (`std::thread::scope` — no external thread-pool dependency,
//!   per DESIGN.md §6). Each worker owns its own mutable context (for most
//!   figures a [`mar_core::Server`] built over a shared immutable
//!   [`Scene`]) and pulls point indices from an atomic counter. Results
//!   are written into per-index slots and reassembled in sweep order, so
//!   the output is **byte-identical** regardless of worker count or
//!   scheduling — `jobs = 1` and `jobs = N` produce the same tables
//!   (enforced by `crates/bench/tests/parallel.rs`).
//! * [`SceneCache`] memoises generated scenes by
//!   `(objects, levels, placement)` so figures that
//!   sweep dataset sizes (fig9b, fig13b) or share the default dataset
//!   (fig8–fig14) stop regenerating identical scenes.
//!
//! Correctness of per-worker servers rests on a property the server tests
//! pin down: sessions are independent, so a simulation that opens its own
//! session computes the same numbers on a fresh server as on one that has
//! served other sweep points before.

use crate::{figs, Scale};
use mar_workload::{Placement, Scene};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What identifies a generated scene: [`figs::build_scene`]'s object
/// count, the scale's subdivision levels and the placement, Zipf's
/// `theta` as an IEEE bit pattern (`None` = uniform) so keys compare
/// exactly. The seed and the bytes per object are constants.
type SceneKey = (usize, usize, Option<u64>);

/// Memoises [`Scene::generate`] results. Generation is deterministic, so a
/// cached scene is indistinguishable from a fresh one (enforced by
/// `crates/bench/tests/parallel.rs`).
#[derive(Debug, Default)]
pub struct SceneCache {
    scenes: Mutex<BTreeMap<SceneKey, Arc<Scene>>>,
}

impl SceneCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the scene for the key, generating it on first use.
    ///
    /// The build runs under the cache lock: callers request scenes from
    /// the coordinating thread before fanning out, so there is no
    /// contention to optimise for, and holding the lock keeps a racing
    /// second builder from wasting a multi-second generation.
    pub fn scene(&self, scale: &Scale, objects: usize, placement: Placement) -> Arc<Scene> {
        let theta = match placement {
            Placement::Uniform => None,
            Placement::Zipf { theta } => Some(theta.to_bits()),
        };
        let key = (objects, scale.levels, theta);
        // mar-lint: allow(D004) — poisoning implies a worker already panicked; propagate
        let mut scenes = self.scenes.lock().expect("scene cache poisoned");
        Arc::clone(
            scenes
                .entry(key)
                .or_insert_with(|| Arc::new(figs::build_scene(scale, objects, placement))),
        )
    }

    /// Number of distinct scenes currently cached.
    pub fn len(&self) -> usize {
        // mar-lint: allow(D004) — poisoning implies a worker already panicked; propagate
        self.scenes.lock().expect("scene cache poisoned").len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default worker count (`--jobs`): every core
/// [`std::thread::available_parallelism`] reports.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sweep engine: a worker count plus the scene cache shared by every
/// figure run through it.
#[derive(Debug, Default)]
pub struct Engine {
    jobs: usize,
    cache: SceneCache,
}

impl Engine {
    /// An engine running sweeps on `jobs` worker threads (`0` and `1` both
    /// mean serial, in-thread execution).
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            cache: SceneCache::new(),
        }
    }

    /// A serial engine (still scene-cached).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// An engine sized to the machine: [`default_jobs`] workers.
    pub fn auto() -> Self {
        Self::new(default_jobs())
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's scene cache.
    pub fn cache(&self) -> &SceneCache {
        &self.cache
    }

    /// Cached scene lookup (see [`SceneCache::scene`]).
    pub fn scene(&self, scale: &Scale, objects: usize, placement: Placement) -> Arc<Scene> {
        self.cache.scene(scale, objects, placement)
    }

    /// Runs one job per sweep point and returns the results **in point
    /// order**, regardless of the execution schedule.
    ///
    /// `make_ctx` builds one mutable context per worker (e.g. a `Server`
    /// over the figure's shared scene); `run` computes one point. With
    /// `jobs <= 1` everything runs inline on the calling thread with a
    /// single context — the deterministic reference the parallel path must
    /// reproduce byte-for-byte.
    ///
    /// # Panics
    /// A panicking job aborts the whole sweep: the scoped join re-raises
    /// the worker's panic on this thread.
    pub fn run<P, T, C>(
        &self,
        points: Vec<P>,
        make_ctx: impl Fn() -> C + Sync,
        run: impl Fn(&mut C, &P) -> T + Sync,
    ) -> Vec<T>
    where
        P: Sync,
        T: Send,
    {
        let workers = self.jobs.min(points.len());
        if workers <= 1 {
            let mut ctx = make_ctx();
            return points.iter().map(|p| run(&mut ctx, p)).collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = points.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut ctx = make_ctx();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else { break };
                        let result = run(&mut ctx, point);
                        // mar-lint: allow(D004) — poisoning implies a sibling worker panicked
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    // mar-lint: allow(D004) — poisoning implies a worker panicked
                    .expect("result slot poisoned")
                    // mar-lint: allow(D004) — the scoped fan-out covers every index
                    .expect("every sweep point produced a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_point_order() {
        let eng = Engine::new(4);
        let points: Vec<usize> = (0..100).collect();
        let out = eng.run(points, || (), |_, &p| p * 2);
        assert_eq!(out, (0..100).map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |_: &mut (), &p: &u64| -> u64 {
            // A little deterministic arithmetic per point.
            (0..1000u64).fold(p, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let points: Vec<u64> = (0..64).collect();
        let serial = Engine::serial().run(points.clone(), || (), work);
        let parallel = Engine::new(8).run(points, || (), work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn each_worker_gets_its_own_context() {
        // Contexts count the jobs they ran; totals must cover every point
        // exactly once even though each worker reuses its own context.
        let eng = Engine::new(3);
        let seen = Mutex::new(Vec::new());
        let out = eng.run(
            (0..50).collect(),
            || 0usize,
            |count, &p: &i32| {
                *count += 1;
                seen.lock().unwrap().push(p);
                p
            },
        );
        assert_eq!(out.len(), 50);
        let mut all = seen.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let eng = Engine::new(8);
        let out: Vec<u32> = eng.run(Vec::<u32>::new(), || (), |_, &p| p);
        assert!(out.is_empty());
    }

    #[test]
    fn scene_cache_returns_the_same_arc() {
        let eng = Engine::serial();
        let scale = crate::Scale::quick();
        let a = eng.scene(&scale, 8, Placement::Uniform);
        let b = eng.scene(&scale, 8, Placement::Uniform);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert_eq!(eng.cache().len(), 1);
        let c = eng.scene(&scale, 8, Placement::Zipf { theta: 0.8 });
        assert!(!Arc::ptr_eq(&a, &c), "different placement, different scene");
        assert_eq!(eng.cache().len(), 2);
    }
}
