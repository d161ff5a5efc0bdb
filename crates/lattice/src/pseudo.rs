//! Frequent pseudo-closed itemsets (Theorem 1 of the paper).
//!
//! > "A frequent pseudo-closed itemset is a frequent itemset that is not
//! > closed and that contains the closures of all its subsets that are
//! > frequent pseudo-closed itemsets."
//!
//! Two constructions of `FP` live here:
//!
//! * [`pseudo_closed_from_generators`] is the one the bases pipelines
//!   run — batch mining and streaming maintenance alike. It reads only
//!   the iceberg classes and their minimal generators, which the
//!   incremental lattice already holds, and never materializes `F`.
//! * [`frequent_pseudo_closed`] applies the definition literally, by a
//!   fixpoint over all frequent itemsets in size order (a proper subset
//!   is always strictly smaller, so each candidate only needs the
//!   pseudo-closed sets already found). It is the `F`-based reference
//!   the staged oracle and `DuquenneGuiguesBasis::build` use.
//!
//! # Why the generators suffice
//!
//! Fix a class `C` and let `S_C` be the sets `X ⊊ C` with `h(X) = C`
//! that are closed under the rules `Q → h(Q)` of the pseudo-closed sets
//! found in strictly smaller classes. The pseudo-closed sets of one class
//! form an antichain, and a pseudo-closed `Q ⊊ P` has `h(Q) ⊊ h(P)`; so
//! the pseudo-closed sets with closure `C` are exactly the minimal
//! members of `S_C`. Every `X ∈ S_C` contains a minimal generator `g` of
//! `C`, hence the closure of `g` under those rules, which itself lies in
//! `S_C` (it stays inside `h(g) = C` and cannot reach `C`, being below
//! `X`). So the minimal members of `S_C` are the minimal closures of
//! `C`'s generators that stop short of `C` — one implication closure per
//! generator, in classes visited smallest first.
//!
//! The support-unrestricted stem base of [`crate::next_closure`] is the
//! independent reference; all three are cross-checked here and in the
//! property tests.

use rulebases_dataset::{Itemset, Support};
use rulebases_mining::{ClosedItemsets, FrequentItemsets};
use serde::{Deserialize, Serialize};

/// A frequent pseudo-closed itemset with its closure and support.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PseudoClosed {
    /// The pseudo-closed itemset `P`.
    pub set: Itemset,
    /// Its closure `h(P)` (a frequent closed itemset).
    pub closure: Itemset,
    /// `supp(P) = supp(h(P))`.
    pub support: Support,
}

/// Computes the frequent pseudo-closed itemsets `FP` from the iceberg
/// classes alone: each class's intent, support and minimal generators
/// (see the [module docs](self) for why this is exact). `F` is never
/// read.
///
/// `classes` must hold every frequent closed set of one context at one
/// threshold, each with its *complete* list of minimal generators, in
/// any order. The classes are visited in canonical (size, then
/// lexicographic) order, so every strictly smaller class — the only ones
/// whose rules can fire inside a class — comes first. Each generator is
/// closed under the rules of the pseudo-closed sets found in strictly
/// smaller classes within its own; the inclusion-minimal closures that
/// stop short of the class are its pseudo-closed sets, with the class's
/// support. The cost is one implication closure per generator, sized by
/// `FP`, never by `F`.
///
/// Results are in canonical order, equal to [`frequent_pseudo_closed`]
/// on the same context and threshold.
pub fn pseudo_closed_from_generators<'a>(
    classes: impl IntoIterator<Item = (&'a Itemset, Support, &'a [Itemset])>,
) -> Vec<PseudoClosed> {
    let mut classes: Vec<(&Itemset, Support, &[Itemset])> = classes.into_iter().collect();
    classes.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut found: Vec<PseudoClosed> = Vec::new();
    for (class, support, generators) in classes {
        debug_assert!(!generators.is_empty(), "class {class:?} untagged");
        // Only the rules of strictly smaller classes inside this one can
        // fire on a subset of it.
        let rules: Vec<&PseudoClosed> = found
            .iter()
            .filter(|p| p.closure.is_proper_subset_of(class))
            .collect();
        let mut closures: Vec<Itemset> = generators
            .iter()
            .map(|g| close_under(g, &rules))
            .filter(|x| x.len() < class.len())
            .collect();
        // Canonical order puts every subset before its supersets, so one
        // pass keeps exactly the inclusion-minimal closures.
        closures.sort_unstable();
        closures.dedup();
        let mut minimal: Vec<Itemset> = Vec::new();
        for x in closures {
            if !minimal.iter().any(|m| m.is_subset_of(&x)) {
                minimal.push(x);
            }
        }
        found.extend(minimal.into_iter().map(|set| PseudoClosed {
            set,
            closure: class.clone(),
            support,
        }));
    }
    found.sort_unstable_by(|a, b| a.set.cmp(&b.set));
    found
}

/// The least superset of `set` closed under the rules `P → h(P)`.
fn close_under(set: &Itemset, rules: &[&PseudoClosed]) -> Itemset {
    let mut closed = set.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for p in rules {
            if p.set.is_subset_of(&closed) && !p.closure.is_subset_of(&closed) {
                closed = closed.union(&p.closure);
                changed = true;
            }
        }
    }
    closed
}

/// Computes the frequent pseudo-closed itemsets `FP` from the frequent
/// itemsets and the frequent closed itemsets of the same context at the
/// same threshold — the definition applied to every frequent itemset,
/// retained as the reference [`pseudo_closed_from_generators`] is tested
/// against.
///
/// The empty itemset is considered frequent (it is supported by every
/// object); it is pseudo-closed exactly when `h(∅) ≠ ∅`, and in that case
/// contributes the basis rule `∅ → h(∅)`.
///
/// Results are in canonical (size, then lexicographic) order.
///
/// # Panics
///
/// Panics if `frequent` and `fc` were mined at different thresholds.
pub fn frequent_pseudo_closed(
    frequent: &FrequentItemsets,
    fc: &ClosedItemsets,
) -> Vec<PseudoClosed> {
    assert_eq!(
        frequent.min_count, fc.min_count,
        "frequent and closed sets mined at different thresholds"
    );
    let mut found: Vec<PseudoClosed> = Vec::new();
    if fc.is_empty() {
        return found;
    }

    // Candidates in size order: ∅ first, then every frequent itemset.
    let mut candidates: Vec<(Itemset, Support)> = vec![(Itemset::empty(), fc.n_objects as Support)];
    candidates.extend(
        frequent
            .iter_sorted()
            .into_iter()
            .map(|(s, sup)| (s.clone(), sup)),
    );

    for (candidate, support) in candidates {
        let Some((closure, closure_support)) = fc.closure_of(&candidate) else {
            debug_assert!(false, "frequent itemset {candidate:?} has no closure in FC");
            continue;
        };
        debug_assert_eq!(support, closure_support, "support of {candidate:?}");
        if closure.len() == candidate.len() {
            continue; // closed, not pseudo-closed
        }
        // Definition check against the pseudo-closed sets already found
        // (all proper subsets are strictly smaller, hence already visited).
        let is_pseudo = found
            .iter()
            .filter(|p| p.set.is_proper_subset_of(&candidate))
            .all(|p| p.closure.is_subset_of(&candidate));
        if is_pseudo {
            found.push(PseudoClosed {
                set: candidate,
                closure: closure.clone(),
                support,
            });
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use rulebases_dataset::{paper_example, MinSupport, MiningContext, TransactionDb};
    use rulebases_mining::brute::{brute_closed, brute_frequent};

    fn set(ids: &[u32]) -> Itemset {
        Itemset::from_ids(ids.iter().copied())
    }

    fn fp_of(db: TransactionDb, min_count: u64) -> Vec<PseudoClosed> {
        let ctx = MiningContext::new(db);
        let frequent = brute_frequent(&ctx, MinSupport::Count(min_count));
        let fc = brute_closed(&ctx, MinSupport::Count(min_count));
        frequent_pseudo_closed(&frequent, &fc)
    }

    /// `FP` from the generator tags of an object-replayed lattice.
    fn fp_from_generators(db: &TransactionDb, min_count: u64) -> Vec<PseudoClosed> {
        let mut lattice = crate::IncrementalLattice::new();
        for t in 0..db.n_transactions() {
            lattice.insert_object(&Itemset::from_sorted(db.transaction(t).to_vec()));
        }
        let (iceberg, tags) = lattice.snapshot(min_count);
        pseudo_closed_from_generators((0..iceberg.n_nodes()).map(|i| {
            let (set, support) = iceberg.node(i);
            (set, support, tags[i].as_slice())
        }))
    }

    #[test]
    fn generator_route_gives_the_paper_example_fp_at_minsup_two() {
        // FP = {A, B, E}: the generators A, B and E close short of their
        // classes AC and BE, while BC, CE, AB and AE fire B → BE, E → BE
        // or A → AC up to their whole class.
        let fp = fp_from_generators(&paper_example(), 2);
        let sets: Vec<Itemset> = fp.iter().map(|p| p.set.clone()).collect();
        assert_eq!(sets, vec![set(&[1]), set(&[2]), set(&[5])]);
        assert_eq!(fp, fp_of(paper_example(), 2));
    }

    #[test]
    fn paper_example_fp_at_minsup_two() {
        // The published example: FP = {A, B, E}, giving the DG basis
        // {A→C, B→E, E→B}.
        let fp = fp_of(paper_example(), 2);
        let sets: Vec<Itemset> = fp.iter().map(|p| p.set.clone()).collect();
        assert_eq!(sets, vec![set(&[1]), set(&[2]), set(&[5])]);
        assert_eq!(fp[0].closure, set(&[1, 3])); // h(A) = AC
        assert_eq!(fp[1].closure, set(&[2, 5])); // h(B) = BE
        assert_eq!(fp[2].closure, set(&[2, 5])); // h(E) = BE
        assert_eq!(fp[0].support, 3);
    }

    #[test]
    fn paper_example_fp_at_minsup_one() {
        // With D frequent, {D} (closure ACD) joins FP.
        let fp = fp_of(paper_example(), 1);
        let sets: Vec<Itemset> = fp.iter().map(|p| p.set.clone()).collect();
        assert!(sets.contains(&set(&[4])));
        assert!(sets.contains(&set(&[1])));
        // Still no closed set sneaks in.
        let ctx = MiningContext::new(paper_example());
        for p in &fp {
            assert!(!ctx.is_closed(&p.set), "{:?}", p.set);
        }
    }

    #[test]
    fn empty_set_is_pseudo_closed_when_not_closed() {
        // Item 7 in every row: h(∅) = {7} ≠ ∅, so ∅ ∈ FP.
        let db = TransactionDb::from_rows(vec![vec![1, 7], vec![2, 7]]);
        let fp = fp_of(db, 1);
        assert_eq!(fp[0].set, Itemset::empty());
        assert_eq!(fp[0].closure, set(&[7]));
        assert_eq!(fp[0].support, 2);
    }

    #[test]
    fn pseudo_closed_sets_satisfy_definition() {
        let ctx = MiningContext::new(paper_example());
        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let fp = frequent_pseudo_closed(&frequent, &fc);
        for p in &fp {
            assert!(!ctx.is_closed(&p.set));
            for q in &fp {
                if q.set.is_proper_subset_of(&p.set) {
                    assert!(q.closure.is_subset_of(&p.set));
                }
            }
        }
        // And nothing satisfying the definition is missed: check every
        // frequent non-closed itemset.
        let fp_sets: Vec<&Itemset> = fp.iter().map(|p| &p.set).collect();
        for (x, _) in frequent.iter() {
            if ctx.is_closed(x) || fp_sets.contains(&x) {
                continue;
            }
            let qualifies = fp
                .iter()
                .filter(|p| p.set.is_proper_subset_of(x))
                .all(|p| p.closure.is_subset_of(x));
            assert!(!qualifies, "{x:?} satisfies the definition but was missed");
        }
    }

    #[test]
    fn agrees_with_stem_base_on_supported_sets() {
        let ctx = MiningContext::new(paper_example());
        let stem = crate::next_closure::stem_base(&ctx);
        let supported_stem: Vec<Itemset> = stem
            .pseudo_closed()
            .filter(|p| ctx.support(p) >= 1)
            .cloned()
            .collect();

        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(1));
        let mut fp: Vec<Itemset> = frequent_pseudo_closed(&frequent, &fc)
            .into_iter()
            .map(|p| p.set)
            .collect();
        let mut expected = supported_stem;
        fp.sort();
        expected.sort();
        assert_eq!(fp, expected);
    }

    #[test]
    fn no_pseudo_closed_in_rectangular_context() {
        // Every object has the same items: the only closed set is the
        // bottom = everything; ∅ is pseudo-closed, nothing else exists.
        let db = TransactionDb::from_rows(vec![vec![0, 1, 2]; 3]);
        let fp = fp_of(db, 1);
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].set, Itemset::empty());
        assert_eq!(fp[0].closure, set(&[0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "different thresholds")]
    fn mismatched_thresholds_panic() {
        let ctx = MiningContext::new(paper_example());
        let frequent = brute_frequent(&ctx, MinSupport::Count(1));
        let fc = brute_closed(&ctx, MinSupport::Count(2));
        let _ = frequent_pseudo_closed(&frequent, &fc);
    }
}
