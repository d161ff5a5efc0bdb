//! Seeded workload inputs. The library only ever sees the rows built
//! here; `--seed` picks them, and the same seed gives the same rows.
//!
//! The generators draw their latent structure (census class profiles and
//! dependencies, Quest patterns) and their objects from a single seed,
//! and the structure alone swings the mined shape: on the census at
//! minsup 0.6, |F| runs from ~40k to ~870k across generator seeds. The
//! benchmark therefore fixes each generator's structure, as the paper's
//! datasets were each one fixed population, and lets `--seed` draw the
//! objects: a sample of distinct rows from a population twice its size
//! for the batch inputs, and a block-wise resample of a drifting
//! population, with the same drift schedule, for the stream.

use crate::stats::SplitMix;
use rulebases_bench::{drifting_census, project_top_items};
use rulebases_dataset::generator::{census_like, QuestConfig};
use rulebases_dataset::TransactionDb;

/// Generator seed of the C73D10K* census population.
const CENSUS_SCHEMA: u64 = 0xC73;
const CENSUS_ATTRS: usize = 73;
/// Objects in one `mine-dense` sample.
const CENSUS_ROWS: usize = 10_000;

/// Generator seed of the T10I4* basket population.
const QUEST_SCHEMA: u64 = 0x7101_0400;
/// Baskets in one `mine-sparse` sample: above the 16 384-row threshold
/// at which `EngineKind::Auto` promotes to a sharded engine.
const QUEST_ROWS: usize = 20_000;

/// Schema seed of the drifting census the stream replays.
const DRIFT_SCHEMA: u64 = 0xD21F7;
const DRIFT_ATTRS: usize = 8;
/// Rows per drift block: value popularity rotates once per block.
const DRIFT_ROTATE: usize = 2_048;
const DRIFT_BLOCKS: usize = 16;
/// Items the stream keeps (the most frequent of the population).
const STREAM_ITEMS: usize = 20;
/// Rows in one generated stream; a writer that outruns it wraps around.
const STREAM_ROWS: usize = 65_536;

/// Decorrelates the generators that share one `--seed`.
const CENSUS_SALT: u64 = 0x6365_6E73_7573;
const QUEST_SALT: u64 = 0x0071_7565_7374;
const STREAM_SALT: u64 = 0x7374_7265_616D;

/// `rows` distinct rows of `population`, drawn by `rng`.
fn sample(population: &TransactionDb, rows: usize, rng: &mut SplitMix) -> TransactionDb {
    let mut order: Vec<usize> = (0..population.n_transactions()).collect();
    // Partial Fisher-Yates: the first `rows` slots are the sample.
    for i in 0..rows {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    TransactionDb::from_rows(
        order[..rows]
            .iter()
            .map(|&t| ids(population.transaction(t)))
            .collect(),
    )
}

/// 10 000 objects of the C73D10K* census stand-in, drawn by `seed` from
/// a fixed 20 000-object `census_like(·, 73, ·)` population.
pub fn census_sample(seed: u64) -> TransactionDb {
    let population = census_like(2 * CENSUS_ROWS, CENSUS_ATTRS, CENSUS_SCHEMA);
    sample(
        &population,
        CENSUS_ROWS,
        &mut SplitMix::new(seed ^ CENSUS_SALT),
    )
}

/// 20 000 T10I4* Quest baskets, drawn by `seed` from a fixed
/// 40 000-basket population.
pub fn quest_sample(seed: u64) -> TransactionDb {
    let population = QuestConfig::t10i4(2 * QUEST_ROWS, QUEST_SCHEMA).generate();
    sample(
        &population,
        QUEST_ROWS,
        &mut SplitMix::new(seed ^ QUEST_SALT),
    )
}

/// The drifting-census stream, projected onto its top 20 items: row `t`
/// is drawn by `seed` from the population rows of drift block
/// `t / 2048 mod 16`, so the drift schedule is the same for every seed.
pub fn drift_stream(seed: u64) -> Vec<Vec<u32>> {
    let population = project_top_items(
        &drifting_census(
            DRIFT_ROTATE * DRIFT_BLOCKS,
            DRIFT_ATTRS,
            DRIFT_ROTATE,
            DRIFT_SCHEMA,
        ),
        STREAM_ITEMS,
    );
    let mut rng = SplitMix::new(seed ^ STREAM_SALT);
    (0..STREAM_ROWS)
        .map(|t| {
            let block = (t / DRIFT_ROTATE) % DRIFT_BLOCKS;
            population[block * DRIFT_ROTATE + rng.below(DRIFT_ROTATE)].clone()
        })
        .collect()
}

/// A transaction as sorted item ids.
fn ids(row: &[rulebases_dataset::Item]) -> Vec<u32> {
    row.iter().map(|item| item.id()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(drift_stream(3), drift_stream(3));
        assert_ne!(drift_stream(3), drift_stream(4));
        let a = census_sample(3);
        let b = census_sample(3);
        let c = census_sample(4);
        assert_eq!(a.n_transactions(), CENSUS_ROWS);
        assert!((0..CENSUS_ROWS).all(|t| a.transaction(t) == b.transaction(t)));
        assert!((0..CENSUS_ROWS).any(|t| a.transaction(t) != c.transaction(t)));
        assert!(a.iter().all(|row| row.len() == CENSUS_ATTRS));
        assert_eq!(quest_sample(3).n_transactions(), QUEST_ROWS);
    }

    #[test]
    fn stream_rows_are_sorted_and_within_the_projection() {
        let stream = drift_stream(1);
        assert_eq!(stream.len(), STREAM_ROWS);
        let mut items = std::collections::BTreeSet::new();
        for row in &stream {
            assert!(row.windows(2).all(|w| w[0] < w[1]));
            items.extend(row.iter().copied());
        }
        assert!(items.len() <= STREAM_ITEMS);
    }
}
