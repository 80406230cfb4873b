//! Capacity partitioning by marginal utility: UCP Lookahead \[69\] and the
//! bank-granular `JumanjiLookahead` variant (Sec. VI-D).
//!
//! Lookahead repeatedly grants the chunk of capacity with the highest
//! *average* marginal utility — misses saved per unit — considering all
//! chunk sizes at once, which handles non-convex miss curves (cliffs).
//! `JumanjiLookahead` answers a different question: how many *whole banks*
//! each VM receives, given that its latency-critical reservation already
//! occupies a fractional number of banks, so that every VM's total is
//! bank-granular (e.g., LC 1.3 banks → batch 0.7, 1.7, 2.7, … banks).

use nuca_cache::Curve;

/// UCP Lookahead: splits `total_units` among `curves`, maximizing total
/// miss savings. Returns per-curve allocations in units.
///
/// Leftover space with zero utility everywhere is distributed round-robin
/// to curves with remaining headroom (more cache never hurts).
///
/// # Panics
///
/// Panics if `curves` is empty.
///
/// # Examples
///
/// ```
/// use jumanji_core::lookahead::lookahead;
/// use nuca_cache::MissCurve;
/// let hungry = MissCurve::new(1, vec![100.0, 60.0, 30.0, 10.0, 5.0]);
/// let modest = MissCurve::new(1, vec![10.0, 2.0, 1.0, 1.0, 1.0]);
/// let alloc = lookahead(&[hungry, modest], 4);
/// assert_eq!(alloc.iter().sum::<usize>(), 4);
/// assert!(alloc[0] >= alloc[1]);
/// ```
pub fn lookahead<C: Curve>(curves: &[C], total_units: usize) -> Vec<usize> {
    assert!(!curves.is_empty(), "need at least one curve");
    let n = curves.len();
    let mut alloc = vec![0usize; n];
    let mut remaining = total_units;
    // On convex curves (DRRIP hulls — the common case in this paper) the
    // best average marginal utility is always the single-unit one, so the
    // expensive chunk scan reduces to plain greedy — and since each convex
    // curve's gains are non-increasing, only the winner's cached gain can
    // change between steps.
    let all_convex = curves.iter().all(|c| c.is_convex());
    if all_convex {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let gain = |i: usize, have: usize| {
            if have < curves[i].max_units() {
                curves[i].at(have) - curves[i].at(have + 1)
            } else {
                0.0 // exhausted: never beats the > 0 acceptance test
            }
        };
        // Heap selection instead of an O(n) winner scan per granted unit:
        // entries are (order-preserving gain key, Reverse(index)), so the
        // heap max is the highest gain with ties to the lowest index —
        // exactly what a first-wins linear scan with a strict `>` picks
        // (numeric ties above zero are bit-identical gains, and ±0.0
        // disagreements only arise when the loop terminates anyway).
        // Granting a unit re-pushes the winner's new gain; entries whose
        // key no longer matches `gains[i]` are stale and skipped. (On a
        // flat segment the new gain can equal the old one bit-for-bit; the
        // leftover twin entry is then *valid*, and popping it later makes
        // the same decision a fresh push would.)
        let mut gains: Vec<f64> = (0..n).map(|i| gain(i, 0)).collect();
        let mut heap: BinaryHeap<(u64, Reverse<usize>)> = gains
            .iter()
            .enumerate()
            .map(|(i, &g)| (gain_key(g), Reverse(i)))
            .collect();
        while remaining > 0 {
            let Some(&(key, Reverse(i))) = heap.peek() else {
                break;
            };
            if key != gain_key(gains[i]) {
                heap.pop(); // stale: i's gain changed since this was pushed
                continue;
            }
            let mu = gains[i];
            if mu <= 0.0 {
                break; // no one benefits from more space
            }
            heap.pop();
            alloc[i] += 1;
            remaining -= 1;
            gains[i] = gain(i, alloc[i]);
            heap.push((gain_key(gains[i]), Reverse(i)));
        }
    }
    while remaining > 0 && !all_convex {
        let mut best: Option<(usize, usize)> = None; // (curve, chunk)
        let mut best_mu = 0.0f64;
        for (i, c) in curves.iter().enumerate() {
            let have = alloc[i];
            let headroom = c.max_units().saturating_sub(have);
            let max_k = headroom.min(remaining);
            if max_k == 0 {
                continue;
            }
            let base = c.at(have);
            // Max average marginal utility over chunk sizes 1..=max_k.
            for k in 1..=max_k {
                let mu = (base - c.at(have + k)) / k as f64;
                if mu > best_mu {
                    best_mu = mu;
                    best = Some((i, k));
                }
            }
        }
        match best {
            Some((i, k)) if best_mu > 0.0 => {
                alloc[i] += k;
                remaining -= k;
            }
            _ => break, // no one benefits from more space
        }
    }
    // Spread leftovers (flat-tailed curves) round-robin within headroom.
    let mut i = 0;
    let mut stuck = 0;
    while remaining > 0 && stuck < n {
        if alloc[i] < curves[i].max_units() {
            alloc[i] += 1;
            remaining -= 1;
            stuck = 0;
        } else {
            stuck += 1;
        }
        i = (i + 1) % n;
    }
    alloc
}

/// Order-preserving `f64` → `u64` key (the IEEE total order): comparing
/// keys matches `f64::total_cmp`, and equal keys mean bit-equal values.
/// Lets marginal-utility gains live in a `BinaryHeap` without wrappers.
fn gain_key(g: f64) -> u64 {
    let b = g.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// `JumanjiLookahead`: chooses whole-bank counts per VM.
///
/// `vm_curves[v]` is VM *v*'s combined batch miss curve; `lc_units[v]` is
/// the total latency-critical reservation of VM *v* in units (possibly
/// fractional). Every VM receives at least enough banks to contain its LC
/// reservation (and at least one bank), and all `num_banks` banks are
/// assigned. Returns the bank count per VM.
///
/// # Panics
///
/// Panics if inputs are inconsistent (no VMs, mismatched lengths) or the
/// mandatory minimums already exceed `num_banks`.
pub fn jumanji_lookahead<C: Curve>(
    vm_curves: &[C],
    lc_units: &[f64],
    num_banks: usize,
    units_per_bank: usize,
) -> Vec<usize> {
    assert!(!vm_curves.is_empty(), "need at least one VM");
    assert_eq!(vm_curves.len(), lc_units.len(), "one LC total per VM");
    assert!(units_per_bank > 0);
    let n = vm_curves.len();
    // Mandatory minimum banks: contain the LC reservation, at least 1.
    let mut banks: Vec<usize> = lc_units
        .iter()
        .map(|&lc| ((lc / units_per_bank as f64).ceil() as usize).max(1))
        .collect();
    let used: usize = banks.iter().sum();
    assert!(
        used <= num_banks,
        "LC reservations need {used} banks but only {num_banks} exist"
    );
    let mut remaining = num_banks - used;
    // Marginal utility of one more bank for VM v: batch curve drop from its
    // current batch capacity to +1 bank.
    let batch_units = |v: usize, nb: usize| (nb * units_per_bank) as f64 - lc_units[v];
    while remaining > 0 {
        let (best, _) = (0..n)
            .map(|v| {
                let b = batch_units(v, banks[v]).max(0.0);
                let b2 = batch_units(v, banks[v] + 1).max(0.0);
                let mu = vm_curves[v].eval_units(b) - vm_curves[v].eval_units(b2);
                (v, mu)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("utilities are finite")
                    .then(b.0.cmp(&a.0)) // ties to the lowest VM id
            })
            .expect("at least one VM");
        banks[best] += 1;
        remaining -= 1;
    }
    banks
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuca_cache::MissCurve;

    #[test]
    fn lookahead_conserves_capacity() {
        let a = MissCurve::new(1, vec![10.0, 8.0, 6.0, 4.0, 2.0, 1.0]);
        let b = MissCurve::new(1, vec![20.0, 10.0, 5.0, 2.0, 1.0, 0.5]);
        let alloc = lookahead(&[a, b], 8);
        assert_eq!(alloc.iter().sum::<usize>(), 8);
    }

    #[test]
    fn lookahead_matches_brute_force_on_convex() {
        let a = MissCurve::new(1, vec![50.0, 20.0, 15.0, 14.0, 13.5]);
        let b = MissCurve::new(1, vec![30.0, 10.0, 5.0, 4.0, 3.8]);
        for total in 0..=8usize {
            let alloc = lookahead(&[a.clone(), b.clone()], total);
            let got = a.at(alloc[0]) + b.at(alloc[1]);
            let mut best = f64::INFINITY;
            for x in 0..=total.min(4) {
                let y = total - x;
                if y > 4 {
                    continue;
                }
                best = best.min(a.at(x) + b.at(y));
            }
            assert!(
                (got - best).abs() < 1e-9,
                "total {total}: lookahead {got} vs brute {best}"
            );
        }
    }

    #[test]
    fn lookahead_sees_over_cliffs() {
        // Greedy-by-single-unit would never start on the cliff curve; the
        // chunked utility lets Lookahead claim the whole cliff.
        let cliff = MissCurve::new(1, vec![100.0, 100.0, 100.0, 100.0, 0.0]);
        let gentle = MissCurve::new(1, vec![50.0, 45.0, 40.0, 35.0, 30.0]);
        let alloc = lookahead(&[cliff, gentle], 4);
        assert_eq!(alloc[0], 4, "cliff curve gets its full working set");
    }

    #[test]
    fn lookahead_spreads_useless_leftovers() {
        let flat = MissCurve::flat(1, 4, 5.0);
        let alloc = lookahead(&[flat.clone(), flat], 6);
        assert_eq!(alloc.iter().sum::<usize>(), 6);
        // Round-robin split of useless space.
        assert_eq!(alloc, vec![3, 3]);
    }

    #[test]
    fn lookahead_respects_headroom() {
        let tiny = MissCurve::new(1, vec![100.0, 0.0]); // 1-unit domain
        let big = MissCurve::new(1, vec![10.0; 11]);
        let alloc = lookahead(&[tiny, big], 8);
        assert!(alloc[0] <= 1);
        assert_eq!(alloc.iter().sum::<usize>(), 8);
    }

    #[test]
    fn jumanji_lookahead_assigns_all_banks() {
        let curves: Vec<MissCurve> = (0..4)
            .map(|i| {
                let pts: Vec<f64> = (0..=640)
                    .map(|u| 1000.0 / (1.0 + u as f64 / (40.0 + 10.0 * i as f64)))
                    .collect();
                MissCurve::new(32 * 1024, pts)
            })
            .collect();
        let lc = [40.0, 45.0, 33.0, 60.0]; // fractional banks (1.25, 1.4, ...)
        let banks = jumanji_lookahead(&curves, &lc, 20, 32);
        assert_eq!(banks.iter().sum::<usize>(), 20);
        for (v, &b) in banks.iter().enumerate() {
            assert!(b as f64 * 32.0 >= lc[v], "VM {v} banks contain its LC");
        }
    }

    #[test]
    fn jumanji_lookahead_example_from_paper() {
        // "if a latency-critical application needs 1.3 LLC banks, then
        // JumanjiLookahead will allocate batch applications in the same VM
        // either 0.7, 1.7, 2.7, ... banks".
        let curve = MissCurve::new(
            32 * 1024,
            (0..=640).map(|u| 100.0 / (1.0 + u as f64 / 50.0)).collect(),
        );
        let banks = jumanji_lookahead(&[curve.clone(), curve], &[1.3 * 32.0, 0.0], 20, 32);
        let batch0 = banks[0] as f64 - 1.3;
        assert!((batch0.fract() - 0.7).abs() < 1e-9 || batch0.fract() == 0.7);
        assert_eq!(banks.iter().sum::<usize>(), 20);
    }

    #[test]
    fn jumanji_lookahead_vm_without_batch_gets_minimum() {
        let flat = MissCurve::flat(32 * 1024, 640, 0.0);
        let hungry = MissCurve::new(
            32 * 1024,
            (0..=640).map(|u| 1e6 / (1.0 + u as f64 / 100.0)).collect(),
        );
        // VM 0 has only an LC app needing 1.5 banks; VM 1 is all batch.
        let banks = jumanji_lookahead(&[flat, hungry], &[48.0, 0.0], 20, 32);
        assert_eq!(banks[0], 2, "just enough banks for 1.5 banks of LC");
        assert_eq!(banks[1], 18);
    }

    #[test]
    #[should_panic(expected = "only")]
    fn infeasible_lc_panics() {
        let flat = MissCurve::flat(1, 32, 0.0);
        jumanji_lookahead(&[flat], &[33.0 * 32.0], 20, 32);
    }
}
