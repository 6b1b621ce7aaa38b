//! Server-side page heat from the Eq. 2 k-direction allocation (§V-A).
//!
//! The client-side prefetcher spends its block budget on the sectors a
//! single client is predicted to move into. [`MotionHeat`] is the same
//! idea promoted to the server: each connected session contributes its
//! own Eq. 2 allocation (smoothed direction probabilities →
//! [`allocate_directions_into`]), and a page's *heat* is the sum over
//! sessions of the allocation weight in the sector that page lies in,
//! attenuated by distance. A motion-aware `PageCache` (mar-store) ranks
//! admission and eviction by this heat, so pages in front of moving
//! clients outlive pages behind them; serving pools run LRU instead.
//!
//! Layout: the pool ranks every eviction candidate against every
//! session, so a heat is the innermost loop of the paged backend.
//! Sessions therefore live in one dense table — ids ascending, positions
//! contiguous, the `k` allocation weights of a session stored as the
//! `f64`s the formula multiplies by — and [`MotionHeat::heat_rect`] is
//! one straight pass over it: clamp, subtract, classify the sector,
//! `sqrt`, divide, add. A steady-state [`MotionHeat::observe`] rewrites
//! its session's row in place and allocates nothing.
//!
//! Incremental ranking: between two victim scans one or two sessions
//! move and the candidates barely change, so a [`SlotHeats`] keeps, per
//! pool slot, the row of per-session contributions the slot's last heat
//! was summed from. The field counts its changes (an *epoch*) and
//! remembers which session row each of the last `CHANGE_RING` (32) epochs
//! rewrote; a re-rank recomputes only those rows and sums the row again.
//! A slot that holds a different page than last time, a session joining
//! or leaving (rows shift), or a gap the ring no longer covers
//! recomputes the whole row. Memory: one `f64` per slot per session
//! (sessions rounded up to a power of two) plus 24 B per slot.
//! [`SlotHeats::heat_slots`] ranks a whole victim scan in one call and
//! recomputes session-major: for each moved session, one branch-free pass
//! over the candidates that need it ([`SectorPartition::compass_select`]
//! for the sector's weight, `sqrt` and two divisions for the distance),
//! then each slot's row is summed.
//!
//! Ranking off the field's lock: a `SlotHeats` reads no `MotionHeat`
//! while it ranks. It carries its own copy of what a heat is computed
//! from — positions, allocation weights, the epoch counters, a few
//! hundred bytes per dozen sessions — which [`SlotHeats::sync`]
//! refreshes from the live field when the epoch has moved. The paged
//! backend syncs under the mutex that guards the field and ranks outside
//! it; several `SlotHeats` may exist, each with its own rows. An
//! observation can leave the lock the same way: [`MotionHeat::read_motion`]
//! copies the session's row into a [`MotionStep`], whose
//! [`MotionStep::compute`] refreshes the Eq. 2 allocation reading no
//! field, and [`MotionHeat::write_motion`] stores it — or, when the row
//! changed in between, observes again in place.
//!
//! Determinism: rows are in session-id order and contributions are
//! added one by one in that order, so a heat is the same sequence of
//! IEEE operations — and the same bits — whatever order the sessions
//! connected in; direction smoothing is a fixed exponential moving
//! average of sector votes with no time source. A cached contribution
//! is the `f64` the same expression produced from the same session row
//! and the same rect — the batch pass performs the IEEE operations of the
//! one-offset definition, and near a diagonal defers to it — and
//! [`SlotHeats::heat_slots`] folds a row with the fold `heat_rect` uses,
//! so the two agree bit for bit — whichever `SlotHeats` ranks, whatever
//! its rows held before.

use std::ops::Range;

use mar_geom::{Point2, Rect2, SectorPartition, Vector};

use crate::alloc::allocate_directions_into;

/// Weight a fresh movement observation carries against a session's
/// smoothed direction distribution. High enough to track a tour's turns
/// within a few ticks, low enough that one jittered step does not flip
/// the allocation.
const DIRECTION_ALPHA: f64 = 0.5;

/// Most sectors a [`MotionHeat`] divides the plane into: a [`MotionStep`]
/// carries one session's row on the stack.
const MAX_SECTORS: usize = 8;

/// Epochs whose changed session row [`MotionHeat`] remembers. A slot
/// re-ranked after a longer gap recomputes its whole row, which at the
/// pool sizes and session counts served costs about what walking a
/// longer ring would.
const CHANGE_RING: usize = 32;

/// What [`SlotHeats::heat_slots`] last computed for one pool slot.
#[derive(Debug, Clone, Copy)]
struct SlotHeat {
    /// The page the slot held.
    page: u32,
    /// The field's epoch at the time; 0 = never ranked.
    epoch: u64,
    /// The sum of the slot's contribution row at that epoch.
    heat: f64,
}

/// A slot no ranking has seen: epoch 0 is older than any field.
const NEVER: SlotHeat = SlotHeat {
    page: 0,
    epoch: 0,
    heat: 0.0,
};

/// One candidate of a [`SlotHeats::heat_slots`] call whose cached heat is
/// stale: where it sits in the call's output, its slot and its page.
#[derive(Debug, Clone, Copy)]
struct Stale {
    index: usize,
    slot: usize,
    page: u32,
}

/// Stale candidates of one kind, their regions kept apart so that the
/// contribution kernel reads nothing else.
#[derive(Debug, Clone, Default)]
struct StaleSet {
    stale: Vec<Stale>,
    rects: Vec<Rect2>,
}

impl StaleSet {
    fn clear(&mut self) {
        self.stale.clear();
        self.rects.clear();
    }

    fn push(&mut self, stale: Stale, rect: Rect2) {
        self.stale.push(stale);
        self.rects.push(rect);
    }

    /// Recomputes session row `row`'s entry of each member's contribution
    /// row (`stride` per slot in `contributions`), through `values`.
    fn refresh(
        &self,
        table: &HeatTable,
        row: usize,
        values: &mut Vec<f64>,
        contributions: &mut [f64],
        stride: usize,
    ) {
        values.clear();
        values.resize(self.rects.len(), 0.0);
        table.contribute(row, &self.rects, values);
        for (s, &value) in self.stale.iter().zip(values.iter()) {
            contributions[s.slot * stride + row] = value;
        }
    }
}

/// True when `a` and `b` hold the same `f64`s, bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// The offset from `pos` to the point of `rect` nearest to it. The clamp
/// is `f64::clamp` without its `lo <= hi` assertion (a region's corners
/// are ordered), so the batch kernel's loop has no panic path.
#[inline(always)]
fn nearest_offset(pos: &Point2, rect: &Rect2) -> Vector<2> {
    let clamp = |x: f64, lo: f64, hi: f64| {
        let x = if x < lo { lo } else { x };
        if x > hi {
            hi
        } else {
            x
        }
    };
    let nearest = Point2::new([
        clamp(pos[0], rect.lo[0], rect.hi[0]),
        clamp(pos[1], rect.lo[1], rect.hi[1]),
    ]);
    nearest - *pos
}

/// What a heat is computed from: the session rows a contribution reads
/// and the counters that say which of them changed when. The live copy
/// sits in a [`MotionHeat`]; a [`SlotHeats`] ranks against a snapshot.
#[derive(Debug, Clone)]
struct HeatTable {
    partition: SectorPartition,
    /// Nominal per-session budget Eq. 2 distributes across sectors. Only
    /// relative weights matter for victim ranking, so this is a fixed
    /// resolution knob, not a real block count.
    alloc_total: usize,
    /// Distance (in scene units) at which a contribution halves.
    scale: f64,
    /// Last observed position per session, one row each, in ascending
    /// session-id order.
    pos: Vec<Point2>,
    /// Eq. 2 allocation of the nominal budget across the sectors, `k`
    /// per session row, as the weights a contribution multiplies by.
    alloc: Vec<f64>,
    /// Counts changes to the rows above; starts at 1 so that a
    /// never-ranked slot (epoch 0) is stale.
    epoch: u64,
    /// The epoch of the last session-set change. Rows shifted then, so a
    /// contribution row computed before it is void.
    set_epoch: u64,
    /// `changed[e % CHANGE_RING]`: the session row epoch `e` rewrote.
    changed: [usize; CHANGE_RING],
}

impl HeatTable {
    /// Session row `row`'s contribution at offset `v` from its position:
    /// the Eq. 2 allocation weight of `v`'s sector, attenuated by
    /// distance. A zero offset (no sector) counts the full nominal
    /// budget — as hot as a contribution can be.
    fn contribution(&self, row: usize, v: Vector<2>) -> f64 {
        let weight = match self.partition.sector_of(&v) {
            Some(s) => self.alloc[row * self.partition.k() + s],
            None => self.alloc_total as f64,
        };
        weight / (1.0 + v.norm() / self.scale)
    }

    /// Session row `row`'s contribution to each of `rects`, into `out`:
    /// [`Self::contribution`] at the region's nearest offset, bit for bit.
    /// On the compass partition this is one straight pass — the weight
    /// picked by [`SectorPartition::compass_select`]'s selects, one `sqrt`
    /// and two divisions, the very IEEE operations `contribution` performs.
    /// An offset the selects cannot vouch for (in the guard band around a
    /// diagonal) is rare, so when one occurs the pass is simply redone
    /// through `contribution` and its `atan2` path.
    fn contribute(&self, row: usize, rects: &[Rect2], out: &mut [f64]) {
        let pos = self.pos[row];
        if self.partition.is_compass() {
            let weights: [f64; 4] = std::array::from_fn(|s| self.alloc[row * 4 + s]);
            let full = self.alloc_total as f64;
            let mut unclear = false;
            for (rect, out) in rects.iter().zip(out.iter_mut()) {
                let v = nearest_offset(&pos, rect);
                let norm_sq = v.norm_sq();
                let zero = norm_sq <= f64::EPSILON * f64::EPSILON;
                let (weight, clear) = SectorPartition::compass_select(v[0], v[1], weights);
                unclear |= !zero & !clear;
                let weight = if zero { full } else { weight };
                *out = weight / (1.0 + norm_sq.sqrt() / self.scale);
            }
            if !unclear {
                return;
            }
        }
        for (rect, out) in rects.iter().zip(out.iter_mut()) {
            *out = self.contribution(row, nearest_offset(&pos, rect));
        }
    }

    /// The sum, in session-id order, of each session's contribution for
    /// the offset `offset(pos)` from its position.
    fn sum_contributions(&self, offset: impl Fn(&Point2) -> Vector<2>) -> f64 {
        self.pos
            .iter()
            .enumerate()
            .map(|(row, pos)| self.contribution(row, offset(pos)))
            .sum()
    }

    /// `*self = src.clone()`, into the vectors already allocated.
    fn copy_from(&mut self, src: &Self) {
        let mut pos = std::mem::take(&mut self.pos);
        let mut alloc = std::mem::take(&mut self.alloc);
        pos.clone_from(&src.pos);
        alloc.clone_from(&src.alloc);
        *self = Self { pos, alloc, ..*src };
    }
}

/// Aggregated per-session motion state mapping any point in the scene to
/// a scalar heat.
#[derive(Debug, Clone)]
pub struct MotionHeat {
    table: HeatTable,
    /// Tracked session ids, ascending. Row `i` of the table and of
    /// `probs` belongs to `ids[i]`.
    ids: Vec<u64>,
    /// Smoothed probability per sector (sums to 1), `k` per session.
    probs: Vec<f64>,
}

/// One [`MotionHeat::observe`] taken apart, so that its Eq. 2 arithmetic
/// can run while nobody holds the field: [`MotionHeat::read_motion`]
/// copies the session's row out, [`Self::compute`] — which reads no field
/// — derives the row's new probabilities and allocation, and
/// [`MotionHeat::write_motion`] stores them. Observing through the three
/// is `observe`, bit for bit, in whatever order other observes and
/// forgets land between the halves.
#[derive(Debug, Clone, Copy)]
pub struct MotionStep {
    session: u64,
    pos: Point2,
    partition: SectorPartition,
    alloc_total: usize,
    /// The session's position as read; `None` when it was not tracked.
    was: Option<Point2>,
    /// Its smoothed probabilities as read (the first `k`).
    was_probs: [f64; MAX_SECTORS],
    /// The probabilities to store (the first `k`).
    probs: [f64; MAX_SECTORS],
    /// The allocation weights to store (the first `k`): as read until
    /// [`Self::compute`] refreshes them.
    alloc: [f64; MAX_SECTORS],
}

impl MotionStep {
    /// The pure middle of an observation: the first one seeds a uniform
    /// direction distribution, each later one votes the movement's sector
    /// into the smoothed distribution, and either refreshes the Eq. 2
    /// allocation from it.
    pub fn compute(&mut self) {
        let k = self.partition.k();
        self.probs = self.was_probs;
        let probs = &mut self.probs[..k];
        match self.was {
            None => probs.fill(1.0 / k as f64),
            Some(was) => {
                // A stationary tick carries no direction information.
                let Some(s) = self.partition.sector_of(&(self.pos - was)) else {
                    return;
                };
                for p in probs.iter_mut() {
                    *p *= 1.0 - DIRECTION_ALPHA;
                }
                probs[s] += DIRECTION_ALPHA;
            }
        }
        let mut counts = [0usize; MAX_SECTORS];
        allocate_directions_into(self.alloc_total, probs, &mut counts[..k]);
        for (weight, blocks) in self.alloc.iter_mut().zip(counts) {
            *weight = blocks as f64;
        }
    }
}

impl MotionHeat {
    /// Creates an empty heat field over `k` axis-centered sectors (one
    /// to eight). `scale` is the distance at which a session's
    /// contribution halves (must be positive and finite).
    pub fn new(k: usize, alloc_total: usize, scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        assert!(k <= MAX_SECTORS, "at most {MAX_SECTORS} sectors");
        Self {
            table: HeatTable {
                partition: SectorPartition::axis_centered(k),
                alloc_total,
                scale,
                pos: Vec::new(),
                alloc: Vec::new(),
                epoch: 1,
                set_epoch: 1,
                changed: [0; CHANGE_RING],
            },
            ids: Vec::new(),
            probs: Vec::new(),
        }
    }

    /// The defaults the server uses: the paper's k = 4 compass sectors,
    /// a 64-unit nominal budget, and a half-heat distance of `scale`.
    pub fn server_default(scale: f64) -> Self {
        Self::new(4, 64, scale)
    }

    /// Records that `session` is now at `pos`. The first observation
    /// seeds a uniform direction distribution; each later one votes the
    /// movement's sector into the smoothed distribution and refreshes
    /// the session's Eq. 2 allocation. A non-finite `pos` is ignored:
    /// it would turn every heat into NaN, and a victim scan over NaNs
    /// ranks nothing.
    pub fn observe(&mut self, session: u64, pos: Point2) {
        if let Some(mut step) = self.read_motion(session, pos) {
            step.compute();
            self.store(self.ids.binary_search(&session), &step);
        }
    }

    /// The read half of an [`Self::observe`] ([`MotionStep`]): `session`'s
    /// row, or the news that it is not tracked. `None` for a non-finite
    /// `pos`, which `observe` ignores.
    pub fn read_motion(&self, session: u64, pos: Point2) -> Option<MotionStep> {
        if !pos.is_finite() {
            return None;
        }
        let mut step = MotionStep {
            session,
            pos,
            partition: self.table.partition,
            alloc_total: self.table.alloc_total,
            was: None,
            was_probs: [0.0; MAX_SECTORS],
            probs: [0.0; MAX_SECTORS],
            alloc: [0.0; MAX_SECTORS],
        };
        if let Ok(row) = self.ids.binary_search(&session) {
            let span = self.row_span(row);
            let k = span.len();
            step.was = Some(self.table.pos[row]);
            step.was_probs[..k].copy_from_slice(&self.probs[span.clone()]);
            step.alloc[..k].copy_from_slice(&self.table.alloc[span]);
        }
        Some(step)
    }

    /// The write half of an [`Self::observe`]: stores what `step` computed
    /// if the session's row is still bit for bit the one
    /// [`Self::read_motion`] copied — tracked or not, same position, same
    /// probabilities. Otherwise another observe or a forget of the session
    /// landed between the halves, and the observation is made again
    /// against the row as it is now.
    pub fn write_motion(&mut self, step: &MotionStep) {
        let at = self.ids.binary_search(&step.session);
        let unchanged = match (at, step.was) {
            (Err(_), None) => true,
            (Ok(row), Some(was)) => {
                let span = self.row_span(row);
                same_bits(&self.table.pos[row].coords, &was.coords)
                    && same_bits(&self.probs[span.clone()], &step.was_probs[..span.len()])
            }
            _ => false,
        };
        if unchanged {
            self.store(at, step);
        } else {
            self.observe(step.session, step.pos);
        }
    }

    /// Stores a computed `step` into the session's row, which sits at
    /// `at` (`binary_search` of the ids: `Err` inserts it there), and
    /// counts the change.
    fn store(&mut self, at: Result<usize, usize>, step: &MotionStep) {
        let table = &mut self.table;
        let k = table.partition.k();
        table.epoch += 1;
        match at {
            Err(row) => {
                table.set_epoch = table.epoch;
                self.ids.insert(row, step.session);
                table.pos.insert(row, step.pos);
                let at = row * k;
                self.probs.splice(at..at, step.probs[..k].iter().copied());
                table.alloc.splice(at..at, step.alloc[..k].iter().copied());
            }
            Ok(row) => {
                table.changed[table.epoch as usize % CHANGE_RING] = row;
                table.pos[row] = step.pos;
                let span = row * k..(row + 1) * k;
                self.probs[span.clone()].copy_from_slice(&step.probs[..k]);
                table.alloc[span].copy_from_slice(&step.alloc[..k]);
            }
        }
    }

    /// Where row `row`'s `k` entries sit in `probs` and the table's
    /// `alloc`.
    fn row_span(&self, row: usize) -> Range<usize> {
        let k = self.table.partition.k();
        row * k..(row + 1) * k
    }

    /// Drops `session`'s contribution (client disconnected).
    pub fn forget(&mut self, session: u64) {
        if let Ok(row) = self.ids.binary_search(&session) {
            self.table.epoch += 1;
            self.table.set_epoch = self.table.epoch;
            let span = self.row_span(row);
            self.ids.remove(row);
            self.table.pos.remove(row);
            self.probs.drain(span.clone());
            self.table.alloc.drain(span);
        }
    }

    /// Tracked sessions.
    pub fn session_count(&self) -> usize {
        self.ids.len()
    }

    /// Heat at `center`: the sum over sessions of the Eq. 2 allocation
    /// weight in `center`'s sector relative to the session, attenuated
    /// by distance. A point exactly at a session's position (no sector)
    /// counts the full nominal budget — it is as hot as a page can be.
    pub fn heat_at(&self, center: Point2) -> f64 {
        self.table.sum_contributions(|pos| center - *pos)
    }

    /// Heat of an axis-aligned region: each session contributes the heat
    /// at the point of `rect` *nearest* to it — a page is as hot as the
    /// hottest prediction it covers. A region containing a session's
    /// position counts that session's full nominal budget, which keeps an
    /// index's root and upper internal pages (their regions cover every
    /// client) resident ahead of leaf pages off to the side; for small
    /// leaf-sized regions the nearest point is effectively the center and
    /// the ranking stays directional.
    pub fn heat_rect(&self, rect: &Rect2) -> f64 {
        self.table
            .sum_contributions(|pos| nearest_offset(pos, rect))
    }
}

/// Per-pool-slot incremental heats against a snapshot of a
/// [`MotionHeat`] (module docs): what one victim scan needs, and nothing
/// it has to share while it runs.
#[derive(Debug, Clone)]
pub struct SlotHeats {
    /// The field as of the last [`Self::sync`].
    table: HeatTable,
    /// Per pool slot, what [`Self::heat_slots`] last computed.
    slots: Vec<SlotHeat>,
    /// Per pool slot, `stride` contributions: one per session row, in row
    /// order, the rest unused.
    contributions: Vec<f64>,
    /// Session rows a slot has room for: the session count rounded up to
    /// a power of two.
    stride: usize,
    /// Scratch of one ranking: the candidates whose whole row is stale,
    /// those of which only the moved sessions' entries are, those
    /// sessions' rows, and one session's contributions to a set.
    whole: StaleSet,
    partial: StaleSet,
    moved: Vec<usize>,
    values: Vec<f64>,
}

impl SlotHeats {
    /// An empty row cache over a snapshot of `field`.
    pub fn new(field: &MotionHeat) -> Self {
        Self {
            table: field.table.clone(),
            slots: Vec::new(),
            contributions: Vec::new(),
            stride: 1,
            whole: StaleSet::default(),
            partial: StaleSet::default(),
            moved: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Brings the snapshot up to `field`, which must be the field (or a
    /// clone of the field) `self` was created from and last synced with:
    /// the epoch alone says whether anything changed. Copies nothing when
    /// it has not, and allocates nothing once the session count has been
    /// seen.
    pub fn sync(&mut self, field: &MotionHeat) {
        if self.table.epoch != field.table.epoch {
            self.table.copy_from(&field.table);
        }
    }

    /// Makes room for slots `0..slots` at the synced field's stride.
    fn fit(&mut self, slots: usize) {
        let stride = self.table.pos.len().next_power_of_two();
        if stride != self.stride {
            // Only a session-set change moves the stride, and that voids
            // every row anyway.
            self.stride = stride;
            self.slots.clear();
            self.contributions = Vec::new();
        }
        if slots > self.slots.len() {
            self.slots.resize(slots, NEVER);
            self.contributions.resize(slots * stride, 0.0);
        }
    }

    /// Ranks a victim scan's candidates, `(slot, page)` each, in one call:
    /// `heats` becomes, per candidate, [`MotionHeat::heat_rect`] of the
    /// synced field over the page's region `regions[page]`, bit for bit
    /// (0 for a page past the end of `regions`). The candidates name
    /// distinct slots, as a pool's do.
    ///
    /// A heat comes from the slot's cached contribution row (module docs):
    /// a slot ranked at this epoch with this page costs nothing; one that
    /// now holds another page, or last ranked before a session joined or
    /// left or longer ago than the change ring reaches, recomputes its
    /// whole row; the rest recompute the entries of the sessions that
    /// moved since the oldest of them was ranked. The recomputing is
    /// session-major — per session row, one pass over the candidates that
    /// need it — and then each row is summed in row order.
    pub fn heat_slots(
        &mut self,
        candidates: &[(u32, u32)],
        regions: &[Rect2],
        heats: &mut Vec<f64>,
    ) {
        let slots = candidates.iter().map(|&(slot, _)| slot as usize + 1).max();
        self.fit(slots.unwrap_or(0));
        let sessions = self.table.pos.len();
        let (epoch, set_epoch) = (self.table.epoch, self.table.set_epoch);
        let ring = CHANGE_RING.min(sessions) as u64;
        let mut since = epoch;
        heats.clear();
        self.whole.clear();
        self.partial.clear();
        for (index, &(slot, page)) in candidates.iter().enumerate() {
            let slot = slot as usize;
            let last = self.slots[slot];
            let Some(&rect) = regions.get(page as usize) else {
                heats.push(0.0);
                continue;
            };
            heats.push(last.heat);
            if last.page == page && last.epoch == epoch {
                continue;
            }
            let stale = Stale { index, slot, page };
            if last.page != page || last.epoch < set_epoch || epoch - last.epoch > ring {
                self.whole.push(stale, rect);
            } else {
                since = since.min(last.epoch);
                self.partial.push(stale, rect);
            }
        }
        // Every epoch after `since` rewrote one session row (a join or a
        // leave would have made the slot whole-stale), and the ring still
        // holds which. Recomputing a row that did not move since a slot
        // was ranked rewrites the bits it held.
        let Self {
            table,
            slots,
            contributions,
            stride,
            whole,
            partial,
            moved,
            values,
        } = self;
        moved.clear();
        moved.extend((since + 1..=epoch).map(|e| table.changed[e as usize % CHANGE_RING]));
        moved.sort_unstable();
        moved.dedup();
        let stride = *stride;
        for row in 0..sessions {
            whole.refresh(table, row, values, contributions, stride);
        }
        for &row in moved.iter() {
            partial.refresh(table, row, values, contributions, stride);
        }
        for s in whole.stale.iter().chain(&partial.stale) {
            let at = s.slot * stride;
            let heat = contributions[at..at + sessions].iter().sum();
            heats[s.index] = heat;
            slots[s.slot] = SlotHeat {
                page: s.page,
                epoch,
                heat,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate_directions;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::f64::consts::TAU;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new([x, y])
    }

    /// The heat field as it was before the dense table: a `BTreeMap` of
    /// per-session `Vec`s, the allocation kept as block counts, and the
    /// sector taken from `atan2`. [`MotionHeat`] must reproduce its heats
    /// bit for bit.
    struct Oracle {
        k: usize,
        alloc_total: usize,
        scale: f64,
        sessions: BTreeMap<u64, (Point2, Vec<f64>, Vec<usize>)>,
    }

    /// `SectorPartition::axis_centered(k).sector_of(v)` by its `atan2`
    /// definition.
    fn angle_sector(k: usize, v: &Vector<2>) -> Option<usize> {
        let offset = (-TAU / (2.0 * k as f64)).rem_euclid(TAU);
        let rel = (v.angle()? - offset).rem_euclid(TAU);
        Some(((rel / (TAU / k as f64)) as usize).min(k - 1))
    }

    impl Oracle {
        fn new(k: usize, alloc_total: usize, scale: f64) -> Self {
            Self {
                k,
                alloc_total,
                scale,
                sessions: BTreeMap::new(),
            }
        }

        fn observe(&mut self, session: u64, pos: Point2) {
            let k = self.k;
            match self.sessions.get_mut(&session) {
                None => {
                    let probs = vec![1.0 / k as f64; k];
                    let alloc = allocate_directions(self.alloc_total, &probs);
                    self.sessions.insert(session, (pos, probs, alloc));
                }
                Some(m) => {
                    let delta = pos - m.0;
                    m.0 = pos;
                    if let Some(s) = angle_sector(k, &delta) {
                        for p in m.1.iter_mut() {
                            *p *= 1.0 - DIRECTION_ALPHA;
                        }
                        m.1[s] += DIRECTION_ALPHA;
                        m.2 = allocate_directions(self.alloc_total, &m.1);
                    }
                }
            }
        }

        fn forget(&mut self, session: u64) {
            self.sessions.remove(&session);
        }

        fn contribution(&self, alloc: &[usize], v: Vector<2>) -> f64 {
            let weight = match angle_sector(self.k, &v) {
                Some(s) => alloc[s] as f64,
                None => self.alloc_total as f64,
            };
            weight / (1.0 + v.norm() / self.scale)
        }

        fn heat_at(&self, center: Point2) -> f64 {
            self.sessions
                .values()
                .map(|(pos, _, alloc)| self.contribution(alloc, center - *pos))
                .sum()
        }

        fn heat_rect(&self, rect: &Rect2) -> f64 {
            self.sessions
                .values()
                .map(|(pos, _, alloc)| {
                    let nearest = Point2::new([
                        pos[0].clamp(rect.lo[0], rect.hi[0]),
                        pos[1].clamp(rect.lo[1], rect.hi[1]),
                    ]);
                    self.contribution(alloc, nearest - *pos)
                })
                .sum()
        }
    }

    proptest! {
        /// After any observe/forget sequence the dense table's heats are
        /// the oracle's, bit for bit, for point probes and for rects that
        /// contain sessions, are degenerate, sit exactly on a session, lie
        /// diagonally off one, or are far away.
        #[test]
        fn heats_equal_the_btreemap_oracle_bit_for_bit(
            k_pick in 0usize..3,
            ops in prop::collection::vec(
                (0u64..9, 0u32..8, -40i32..40, -40i32..40), 1..80),
            rects in prop::collection::vec(
                (-60.0f64..60.0, -60.0f64..60.0, 0.0f64..30.0, 0.0f64..30.0), 1..12),
        ) {
            let k = [4usize, 4, 6][k_pick];
            let mut dense = MotionHeat::new(k, 64, 12.5);
            let mut oracle = Oracle::new(k, 64, 12.5);
            for (step, &(session, kind, x, y)) in ops.iter().enumerate() {
                // Integer-lattice positions make stationary ticks, exact
                // diagonals and axis moves all common.
                let pos = p(x as f64 * 0.5, y as f64 * 0.5);
                if kind == 0 {
                    dense.forget(session);
                    oracle.forget(session);
                } else {
                    dense.observe(session, pos);
                    oracle.observe(session, pos);
                }
                prop_assert_eq!(dense.session_count(), oracle.sessions.len());
                let mut probes: Vec<Rect2> = rects
                    .iter()
                    .map(|&(x, y, w, h)| Rect2::new(p(x, y), p(x + w, y + h)))
                    .collect();
                probes.push(Rect2::new(p(-1e4, -1e4), p(1e4, 1e4))); // contains all
                probes.push(Rect2::new(pos, pos)); // degenerate, on a session
                probes.push(Rect2::new(pos + Vector::new([3.0, 3.0]), pos + Vector::new([5.0, 5.0])));
                probes.push(Rect2::new(p(9e5, -9e5), p(9.1e5, -8.9e5))); // far
                for r in &probes {
                    prop_assert_eq!(
                        dense.heat_rect(r).to_bits(),
                        oracle.heat_rect(r).to_bits(),
                        "heat_rect({:?}) after step {}", r, step
                    );
                    prop_assert_eq!(
                        dense.heat_at(r.lo).to_bits(),
                        oracle.heat_at(r.lo).to_bits(),
                        "heat_at({:?}) after step {}", r.lo, step
                    );
                }
            }
        }
    }

    /// Everything an observation can change, as bits: the ids, the
    /// counters SlotHeats trusts, and every row.
    fn state_bits(f: &MotionHeat) -> Vec<u64> {
        let t = &f.table;
        let mut bits = vec![t.epoch, t.set_epoch];
        bits.extend(t.changed.iter().map(|&row| row as u64));
        bits.extend(&f.ids);
        bits.extend(t.pos.iter().flat_map(|p| p.coords.map(f64::to_bits)));
        bits.extend(f.probs.iter().chain(&t.alloc).map(|x| x.to_bits()));
        bits
    }

    proptest! {
        /// The split observe — `read_motion`, `MotionStep::compute`,
        /// `write_motion` — is `observe`, bit for bit. A field driven
        /// through the halves, with nothing, an observe, a forget, or a
        /// forget and a rejoin at the very same position landing between
        /// them (of another session or, as often as not, of the same one),
        /// is after every step the field that ran that interloper and then
        /// `observe`: same ids, epochs, change ring and rows, same heats.
        /// Lattice positions make stationary ticks and joins common; some
        /// positions are NaN; both the compass and a six-sector partition
        /// run.
        #[test]
        fn split_observe_equals_observe_bit_for_bit(
            six in 0u32..2,
            ops in prop::collection::vec(
                ((0u32..8, 0u64..5, -4i32..4, -4i32..4), (0u32..5, 0u64..5, -4i32..4)), 1..120),
        ) {
            let mut split = MotionHeat::new(if six == 1 { 6 } else { 4 }, 64, 12.5);
            let mut serial = split.clone();
            for (step, &((kind, session, x, y), (between, other, z))) in ops.iter().enumerate() {
                let pos = p(if kind == 1 { f64::NAN } else { x as f64 }, y as f64);
                let interloper = |f: &mut MotionHeat| match between {
                    1 | 2 => f.observe(other, p(z as f64, y as f64)),
                    3 => f.forget(other),
                    // Same position, fresh probabilities.
                    4 => {
                        if let Ok(row) = f.ids.binary_search(&other) {
                            let at = f.table.pos[row];
                            f.forget(other);
                            f.observe(other, at);
                        }
                    }
                    _ => {}
                };
                if kind == 0 {
                    split.forget(session);
                    serial.forget(session);
                } else {
                    let read = split.read_motion(session, pos);
                    prop_assert_eq!(read.is_some(), kind != 1);
                    interloper(&mut split);
                    if let Some(mut motion) = read {
                        motion.compute();
                        split.write_motion(&motion);
                    }
                    interloper(&mut serial);
                    serial.observe(session, pos);
                }
                prop_assert_eq!(state_bits(&split), state_bits(&serial), "after step {}", step);
                for r in [
                    Rect2::new(p(-1e4, -1e4), p(1e4, 1e4)),
                    Rect2::new(p(1.0, -2.0), p(3.0, 2.0)),
                    Rect2::new(p(-9.0, 5.0), p(-7.0, 6.0)),
                ] {
                    prop_assert_eq!(split.heat_rect(&r).to_bits(), serial.heat_rect(&r).to_bits());
                }
            }
        }
    }

    /// Ranks `candidates` through `rows` and returns the heats.
    fn rank(rows: &mut SlotHeats, candidates: &[(u32, u32)], regions: &[Rect2]) -> Vec<f64> {
        let mut heats = vec![f64::NAN; 3];
        rows.heat_slots(candidates, regions, &mut heats);
        heats
    }

    proptest! {
        /// After any interleaving of observe / forget / rank / refill — a
        /// burst of sessions stepping between two scans, gaps longer than
        /// the change ring, session counts crossing powers of two,
        /// non-finite positions, and each scan ranking another subset of
        /// the slots, so that candidates leave a scan and come back stale —
        /// every heat a batch returns is `heat_rect` of the page its slot
        /// holds, bit for bit: for a row cache that ranks at every
        /// opportunity and for one that is synced and asked half as often,
        /// so their rows and snapshots have different histories. Sessions
        /// sit on a half-unit lattice and some regions have lattice
        /// corners, so zero offsets (a session inside a region) and exact
        /// diagonals — the sign selects' one blind spot — are common, and
        /// one region sits 1e-12 off the lattice to land in the guard
        /// band.
        #[test]
        fn slot_heats_equal_heat_rect_bit_for_bit(
            ops in prop::collection::vec(
                (0u32..13, 0u64..6, 0usize..8, -40i32..40, -40i32..40, 1u32..256), 1..200),
            rects in prop::collection::vec(
                (-30.0f64..30.0, -30.0f64..30.0, 0.0f64..20.0, 0.0f64..20.0), 6..7),
            corners in prop::collection::vec((-12i32..12, -12i32..12, 0i32..3), 4..5),
        ) {
            let mut regions: Vec<Rect2> = rects
                .iter()
                .map(|&(x, y, w, h)| Rect2::new(p(x, y), p(x + w, y + h)))
                .chain(corners.iter().map(|&(x, y, w)| {
                    let lo = p(x as f64, y as f64);
                    Rect2::new(lo, lo + Vector::new([w as f64, w as f64]))
                }))
                .collect();
            let near = regions[6].lo + Vector::new([1e-12, 0.0]);
            regions.push(Rect2::new(near, near));
            let mut field = MotionHeat::new(4, 64, 12.5);
            let mut eager = SlotHeats::new(&field);
            let mut lazy = SlotHeats::new(&field);
            // The page each of 8 pool slots holds.
            let mut held: [u32; 8] = std::array::from_fn(|s| s as u32);
            for (step, &(kind, session, slot, x, y, subset)) in ops.iter().enumerate() {
                let pos = p(x as f64 * 0.5, y as f64 * 0.5);
                match kind {
                    0 => field.forget(session),
                    1 => field.observe(session, p(f64::NAN, pos[1])),
                    2 => field.observe(session, p(pos[0], f64::INFINITY)),
                    // Many moves in a row: a gap the ring cannot cover.
                    3 => (0..CHANGE_RING + 3)
                        .for_each(|i| field.observe(session, p(pos[0] + i as f64, pos[1]))),
                    // A burst of sessions: the stride crosses 8 and 16.
                    4 => (0..14).for_each(|s| field.observe(100 + s, pos)),
                    5 => (0..14).for_each(|s| field.forget(100 + s)),
                    // Five sessions step between two scans.
                    6 => (0..5).for_each(|s| {
                        field.observe(s, pos + Vector::new([s as f64 * 0.5, -(s as f64)]))
                    }),
                    7 | 8 => {
                        let page = held[slot] as usize + x.unsigned_abs() as usize;
                        held[slot] = (page % regions.len()) as u32;
                    }
                    _ => field.observe(session, pos),
                }
                let rankers = match kind {
                    0..=7 => &mut [][..],
                    8 => &mut [&mut eager][..],
                    _ => &mut [&mut eager, &mut lazy][..],
                };
                let candidates: Vec<(u32, u32)> = (0..8)
                    .filter(|s| subset >> s & 1 == 1)
                    .map(|s| (s, held[s as usize]))
                    .collect();
                for rows in rankers {
                    rows.sync(&field);
                    let heats = rank(rows, &candidates, &regions);
                    prop_assert_eq!(heats.len(), candidates.len());
                    for (&(slot, page), heat) in candidates.iter().zip(heats) {
                        prop_assert_eq!(
                            heat.to_bits(),
                            field.heat_rect(&regions[page as usize]).to_bits(),
                            "slot {} holding page {} after step {}", slot, page, step
                        );
                    }
                }
            }
            // Every slot at once, plus one whose page has no region.
            let mut candidates: Vec<(u32, u32)> = (0..8).map(|s| (s, held[s as usize])).collect();
            candidates.push((8, regions.len() as u32));
            for rows in [&mut eager, &mut lazy] {
                rows.sync(&field);
                let heats = rank(rows, &candidates, &regions);
                prop_assert_eq!(heats[8], 0.0);
                for (&(_, page), heat) in candidates.iter().zip(&heats[..8]) {
                    prop_assert!(!heat.is_nan());
                    prop_assert_eq!(heat.to_bits(), field.heat_rect(&regions[page as usize]).to_bits());
                }
            }
        }
    }

    /// One non-finite position must not turn every heat into NaN: the
    /// session keeps its last finite row, or gets none.
    #[test]
    fn non_finite_positions_are_ignored() {
        let mut h = MotionHeat::server_default(10.0);
        h.observe(1, p(0.0, 0.0));
        h.observe(1, p(4.0, 0.0));
        h.observe(2, p(7.0, 5.0));
        let page = [Rect2::new(p(10.0, -2.0), p(14.0, 2.0))];
        let mut rows = SlotHeats::new(&h);
        let before = (h.heat_rect(&page[0]), rank(&mut rows, &[(0, 0)], &page)[0]);
        assert!(before.0 > 0.0 && before.0 == before.1);
        h.observe(2, p(f64::NAN, 5.0));
        h.observe(1, p(f64::INFINITY, 0.0));
        h.observe(3, p(1.0, f64::NEG_INFINITY));
        assert_eq!(h.session_count(), 2, "a session is not born at NaN");
        rows.sync(&h);
        assert_eq!(
            (h.heat_rect(&page[0]), rank(&mut rows, &[(0, 0)], &page)[0]),
            before
        );
        // The next finite position moves session 2 from where it really was.
        let mut clean = MotionHeat::server_default(10.0);
        clean.observe(1, p(0.0, 0.0));
        clean.observe(1, p(4.0, 0.0));
        clean.observe(2, p(7.0, 5.0));
        for f in [&mut h, &mut clean] {
            f.observe(2, p(7.0, 9.0));
        }
        assert_eq!(h.heat_rect(&page[0]), clean.heat_rect(&page[0]));
    }

    #[test]
    fn empty_field_is_cold() {
        let h = MotionHeat::server_default(10.0);
        assert_eq!(h.heat_at(p(3.0, 4.0)), 0.0);
    }

    #[test]
    fn heading_east_heats_the_east() {
        let mut h = MotionHeat::server_default(10.0);
        // Session 1 walks steadily east.
        for i in 0..8 {
            h.observe(1, p(i as f64, 0.0));
        }
        let ahead = h.heat_at(p(12.0, 0.0));
        let behind = h.heat_at(p(2.0, 0.0));
        assert!(
            ahead > behind,
            "east page must be hotter than the one behind: {ahead} vs {behind}"
        );
    }

    #[test]
    fn closer_pages_are_hotter() {
        let mut h = MotionHeat::server_default(10.0);
        for i in 0..4 {
            h.observe(7, p(i as f64, 0.0));
        }
        let near = h.heat_at(p(5.0, 0.0));
        let far = h.heat_at(p(50.0, 0.0));
        assert!(near > far, "distance must attenuate: {near} vs {far}");
    }

    #[test]
    fn forget_removes_contribution() {
        let mut h = MotionHeat::server_default(10.0);
        h.observe(1, p(0.0, 0.0));
        h.observe(2, p(1.0, 1.0));
        assert_eq!(h.session_count(), 2);
        h.forget(1);
        assert_eq!(h.session_count(), 1);
        h.forget(1); // idempotent
        assert_eq!(h.session_count(), 1);
    }

    #[test]
    fn containing_rect_is_maximally_hot() {
        let mut h = MotionHeat::server_default(10.0);
        for i in 0..8 {
            h.observe(1, p(i as f64, 0.0));
        }
        // The whole-space rect contains the session → full budget, hotter
        // than any rect strictly ahead, which in turn beats one behind.
        let root = Rect2::new(p(-100.0, -100.0), p(100.0, 100.0));
        let ahead = Rect2::new(p(12.0, -1.0), p(14.0, 1.0));
        let behind = Rect2::new(p(0.0, -1.0), p(2.0, 1.0));
        let (hr, ha, hb) = (
            h.heat_rect(&root),
            h.heat_rect(&ahead),
            h.heat_rect(&behind),
        );
        assert!(hr > ha, "containing rect must dominate: {hr} vs {ha}");
        assert!(ha > hb, "rect ahead must beat rect behind: {ha} vs {hb}");
        // A degenerate rect agrees with the point evaluation.
        let pt = p(12.0, 0.0);
        assert_eq!(h.heat_rect(&Rect2::new(pt, pt)), h.heat_at(pt));
    }

    #[test]
    fn heat_is_session_order_invariant() {
        // Two fields fed the same observations in different interleavings
        // agree everywhere (summation runs in session-id order).
        let mut a = MotionHeat::server_default(10.0);
        let mut b = MotionHeat::server_default(10.0);
        let obs = [(1u64, 0.0), (2u64, 5.0), (1u64, 1.0), (2u64, 4.0)];
        for (s, x) in obs {
            a.observe(s, p(x, 0.0));
        }
        for (s, x) in [(2u64, 5.0), (2u64, 4.0), (1u64, 0.0), (1u64, 1.0)] {
            b.observe(s, p(x, 0.0));
        }
        for probe in [p(0.0, 0.0), p(3.0, 2.0), p(-8.0, 1.0)] {
            assert_eq!(a.heat_at(probe), b.heat_at(probe));
        }
    }
}
