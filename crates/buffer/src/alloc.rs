//! Recursive k-direction buffer allocation (§V-A).
//!
//! Given direction probabilities `p_1 … p_k` and a buffer of `total`
//! blocks, the paper halves the directions into two groups, applies Eq. 2
//! to split the buffer between the groups, and recurses into each half
//! until single directions remain. Different *orderings* of the `k`
//! directions can give (slightly) different allocations; the paper tried
//! all `k!` and found the effect negligible — [`best_ordering_allocation`]
//! implements that exhaustive step for the ablation benchmark, scoring
//! orderings by a deterministic random-walk residence simulation.

use crate::residence::optimal_split;

/// Allocates `total` blocks across `k` directions with the given
/// probabilities (need not be normalised), using the paper's recursive
/// halving. Returns one block count per direction; counts sum to `total`.
///
/// ```
/// use mar_buffer::allocate_directions;
/// // A client almost certainly continuing east gets most of the buffer
/// // placed in the east sector.
/// let alloc = allocate_directions(20, &[0.8, 0.1, 0.05, 0.05]);
/// assert_eq!(alloc.iter().sum::<usize>(), 20);
/// assert!(alloc[0] > alloc[1] + alloc[2] + alloc[3]);
/// ```
pub fn allocate_directions(total: usize, probs: &[f64]) -> Vec<usize> {
    let mut out = vec![0usize; probs.len()];
    allocate_directions_into(total, probs, &mut out);
    out
}

/// [`allocate_directions`] into a caller-owned slice (one slot per
/// direction, overwritten): the same allocation without touching the
/// heap, for callers that refresh it per query.
pub fn allocate_directions_into(total: usize, probs: &[f64], out: &mut [usize]) {
    assert!(!probs.is_empty(), "need at least one direction");
    assert!(
        probs.iter().all(|p| *p >= 0.0 && p.is_finite()),
        "probabilities must be non-negative and finite"
    );
    assert_eq!(out.len(), probs.len(), "one slot per direction");
    recurse(total, probs, out);
    debug_assert_eq!(out.iter().sum::<usize>(), total);
}

/// Splits `total` over the directions `probs` covers; the halves of a
/// group are contiguous, so the recursion narrows both slices in step.
fn recurse(total: usize, probs: &[f64], out: &mut [usize]) {
    match probs.len() {
        0 => {}
        1 => out[0] = total,
        n => {
            let (left, right) = probs.split_at(n / 2);
            let (out_l, out_r) = out.split_at_mut(n / 2);
            let p_l: f64 = left.iter().sum();
            let p_r: f64 = right.iter().sum();
            let (n_l, n_r) = if p_l + p_r <= 0.0 {
                // No information: split evenly.
                (total / 2, total - total / 2)
            } else {
                optimal_split(total, p_l, p_r)
            };
            recurse(n_l, left, out_l);
            recurse(n_r, right, out_r);
        }
    }
}

/// Tries every ordering (permutation) of the directions, allocates under
/// each, scores the resulting allocation with a deterministic 2-D
/// random-walk residence simulation, and returns the best allocation (in
/// the *original* direction order) together with its score.
///
/// `k` is capped at 6 (720 permutations) — beyond that the paper's own
/// conclusion ("this step can be omitted") applies with force.
pub fn best_ordering_allocation(total: usize, probs: &[f64]) -> (Vec<usize>, f64) {
    let k = probs.len();
    assert!(
        (1..=6).contains(&k),
        "ordering search supports 1..=6 directions"
    );
    let mut perm: Vec<usize> = (0..k).collect();
    let mut best_alloc = allocate_directions(total, probs);
    let mut best_score = estimate_residence(&best_alloc, probs);
    permute(&mut perm, 0, &mut |p: &[usize]| {
        let permuted_probs: Vec<f64> = p.iter().map(|&i| probs[i]).collect();
        let alloc_perm = allocate_directions(total, &permuted_probs);
        // Map back to original direction order.
        let mut alloc = vec![0usize; k];
        for (slot, &dir) in p.iter().enumerate() {
            alloc[dir] = alloc_perm[slot];
        }
        let score = estimate_residence(&alloc, probs);
        if score > best_score {
            best_score = score;
            best_alloc = alloc;
        }
    });
    (best_alloc, best_score)
}

fn permute(items: &mut Vec<usize>, start: usize, f: &mut impl FnMut(&[usize])) {
    if start == items.len() {
        f(items);
        return;
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute(items, start + 1, f);
        items.swap(start, i);
    }
}

/// Deterministic estimate of the expected residence time of an allocation:
/// a client repeatedly steps into direction `i` with probability `p_i`; it
/// leaves the buffered region once its net excursion in some direction
/// exceeds that direction's allocation. Averaged over a fixed trial count
/// with a splitmix64 stream — no external RNG state, fully reproducible.
pub fn estimate_residence(alloc: &[usize], probs: &[f64]) -> f64 {
    let k = alloc.len();
    assert_eq!(k, probs.len());
    let total_p: f64 = probs.iter().sum();
    if total_p <= 0.0 {
        return 0.0;
    }
    let trials = 256;
    let max_steps = 10_000;
    let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        rng_state ^= rng_state >> 12;
        rng_state ^= rng_state << 25;
        rng_state ^= rng_state >> 27;
        (rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut total_time = 0u64;
    for _ in 0..trials {
        // Net excursion per direction; opposite directions cancel when the
        // partition has an even count (directions i and i+k/2 oppose).
        let mut pos = vec![0i64; k];
        let mut steps = 0u64;
        'walk: while steps < max_steps {
            steps += 1;
            let mut pick = next() * total_p;
            let mut dir = 0;
            for (i, p) in probs.iter().enumerate() {
                if pick < *p {
                    dir = i;
                    break;
                }
                pick -= p;
                dir = i;
            }
            pos[dir] += 1;
            if k.is_multiple_of(2) {
                let opposite = (dir + k / 2) % k;
                pos[opposite] -= 1;
            }
            if pos[dir] > alloc[dir] as i64 {
                break 'walk;
            }
        }
        total_time += steps;
    }
    total_time as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_sums_to_total() {
        for total in [0usize, 1, 7, 32, 100] {
            for probs in [
                vec![0.25, 0.25, 0.25, 0.25],
                vec![0.7, 0.1, 0.1, 0.1],
                vec![0.5, 0.3, 0.2],
                vec![1.0],
                vec![0.0, 0.0, 1.0, 0.0],
            ] {
                let a = allocate_directions(total, &probs);
                assert_eq!(a.iter().sum::<usize>(), total, "{probs:?}");
            }
        }
    }

    #[test]
    fn uniform_probs_allocate_evenly() {
        let a = allocate_directions(40, &[0.25; 4]);
        for &n in &a {
            assert!((9..=11).contains(&n), "{a:?}");
        }
    }

    #[test]
    fn dominant_direction_gets_most_blocks() {
        let a = allocate_directions(40, &[0.85, 0.05, 0.05, 0.05]);
        assert!(a[0] > a[1] + a[2] + a[3], "{a:?}");
        assert!(a[0] >= 25, "{a:?}");
    }

    #[test]
    fn zero_probability_direction_gets_nothing_much() {
        let a = allocate_directions(30, &[0.5, 0.5, 0.0, 0.0]);
        assert!(a[2] + a[3] <= 2, "{a:?}");
    }

    #[test]
    fn all_zero_probs_fall_back_to_even() {
        let a = allocate_directions(16, &[0.0; 4]);
        assert_eq!(a.iter().sum::<usize>(), 16);
        for &n in &a {
            assert!((3..=5).contains(&n), "{a:?}");
        }
    }

    #[test]
    fn ordering_search_never_worse_than_default() {
        for probs in [
            vec![0.4, 0.3, 0.2, 0.1],
            vec![0.25; 4],
            vec![0.6, 0.2, 0.15, 0.05],
        ] {
            let default_alloc = allocate_directions(24, &probs);
            let default_score = estimate_residence(&default_alloc, &probs);
            let (_, best_score) = best_ordering_allocation(24, &probs);
            assert!(best_score >= default_score);
        }
    }

    #[test]
    fn ordering_effect_is_small() {
        // The paper: "the ordering only slightly affects the average
        // residence time". Verify the gap is bounded.
        let probs = vec![0.4, 0.25, 0.2, 0.15];
        let default_alloc = allocate_directions(24, &probs);
        let default_score = estimate_residence(&default_alloc, &probs);
        let (_, best_score) = best_ordering_allocation(24, &probs);
        assert!(
            best_score <= default_score * 1.6 + 10.0,
            "ordering changed residence drastically: {default_score} -> {best_score}"
        );
    }

    #[test]
    fn residence_estimate_prefers_matched_allocation() {
        // Allocating along the drift must beat allocating against it.
        let probs = [0.7, 0.1, 0.1, 0.1];
        let matched = [20, 2, 2, 2];
        let inverted = [2, 2, 20, 2];
        assert!(estimate_residence(&matched, &probs) > estimate_residence(&inverted, &probs));
    }
}
