//! Golden forest fingerprints: every fitted, unlearned, rolled-back and
//! inserted forest must serialize to exactly the bytes pinned below.
//!
//! The builder and the delete pass are performance-critical code whose
//! output is fully determined by the data, the configuration and the
//! per-tree RNG stream. Any change to either — a reordered RNG draw, a
//! different slice length handed to a shuffle, an unstable partition that
//! reorders a leaf's ids, a candidate pool laid out differently — changes
//! at least one serialized byte, and this test names the sweep point and
//! the stage where it did.
//!
//! Each sweep point fits a forest on all rows but a held-out set, then
//! hashes [`persist::to_bytes`] (FNV-1a, 64-bit) after:
//! 1. the fit;
//! 2. a journaled delete of a pattern subset (as FUME's lattice deletes);
//! 3. that delete's rollback, which must equal the fit's hash;
//! 4. two chained destructive deletes — their retrains and replenishments
//!    consume the tree RNG, so the second one shows any stream drift;
//! 5. an insert of the held-out rows and the first destructive batch.
//!
//! The sweep covers the Adult, German and ACS generators ×
//! `random_depth` {0, 1, 2} × `max_features` {Sqrt, All} ×
//! `min_samples_leaf` {1, 5}; a leaf minimum of 5 makes the builder
//! reject random splits and greedy candidates, and random depth 2 puts
//! random nodes below the root.
//!
//! On a mismatch the failure message prints the whole table as observed,
//! in the source form of [`GOLDEN`]. Re-pin it only in a change that
//! deliberately alters the forests, and say so.

use fume_forest::{persist, DareConfig, DareForest, DeleteReport, MaxFeatures};
use fume_tabular::datasets::{acs_income, adult, german_credit, PaperDataset};
use fume_tabular::Dataset;

/// One sweep point: generator name, `random_depth`, `max_features`,
/// `min_samples_leaf`, then the hashes after fit, journaled delete,
/// the chained destructive deletes and the insert.
type Row = (&'static str, usize, &'static str, u32, [u64; 4]);

const GOLDEN: &[Row] = &[
    ("adult", 0, "Sqrt", 1, [0x385bba84c8a3d80a, 0x70229e99b731c8e2, 0x8fae5325e08b4b34, 0x7e137014102c0a29]),
    ("adult", 0, "Sqrt", 5, [0x82b9b61c79cf9156, 0xb89dbd33896971af, 0x9c706230cc465ca9, 0xfca640986f187396]),
    ("adult", 0, "All", 1, [0x5cb823b384fcd1bd, 0x3f4fad7a2d609ff0, 0xdf762f71e5cbdbdc, 0x7cbd678ef5887f1b]),
    ("adult", 0, "All", 5, [0x50d78a61b39dd83d, 0x15909c883836ada9, 0x7801c2b86a639ca1, 0xc7ff7c9d17233199]),
    ("adult", 1, "Sqrt", 1, [0xd82288052f059085, 0xae4a4a582c61eab7, 0x42d51c20bf99d215, 0xfd668bef9cdd5b41]),
    ("adult", 1, "Sqrt", 5, [0x2671f01211c6d9ee, 0x090c7dab0fffd77c, 0xec7f6e46b19a06ee, 0x0a6f0c7fcfcc6d7b]),
    ("adult", 1, "All", 1, [0x2852f7d81853b904, 0xd7b8984f0899e32b, 0x20220462beaa4741, 0xf4fd7cd925876260]),
    ("adult", 1, "All", 5, [0xef20a7255c99be9f, 0x940f432878b13917, 0xfe22728d381dc4c2, 0x3c6fd8b6985bdc1a]),
    ("adult", 2, "Sqrt", 1, [0x1956f0988e934279, 0x61588785d8f04dab, 0x2bf6bfbbe3312753, 0xf4c49cefc8c7275a]),
    ("adult", 2, "Sqrt", 5, [0x09e3d310311783ab, 0xdb5bcb2424bc6003, 0x16bc3b191f0bd555, 0x1df5acc28b71ccf2]),
    ("adult", 2, "All", 1, [0x44e9b314e7a322ba, 0x43983f1441432921, 0x18ec8d788487ee92, 0xd0df676380b206de]),
    ("adult", 2, "All", 5, [0x59cfcac0ec487a2d, 0x6867ec5a1ab41c53, 0xb4de590d249fdc77, 0x7c32c20a55e0e722]),
    ("german", 0, "Sqrt", 1, [0x610daf0260028d77, 0x0f7d652efee7e545, 0x8d0122121843a2b3, 0xc70e0fedd51b9620]),
    ("german", 0, "Sqrt", 5, [0xfd160764cacfe052, 0xc6a5087d83597989, 0xb8c806b7b498c5c0, 0xe6957a7bcfd027b3]),
    ("german", 0, "All", 1, [0xe37430e245fc5bda, 0x740e6b300768981b, 0xaaa2c07bdb54a588, 0x18ca515a129bcb69]),
    ("german", 0, "All", 5, [0x46c525f29b647ccc, 0x5d7b77fc6e830e84, 0x9cd9dfcfa6c4e76e, 0x577a8503c94b17ad]),
    ("german", 1, "Sqrt", 1, [0xe23a836a3d8dd5a5, 0xeb41d48682f05643, 0x76d52613dd1a9907, 0x1c6c55e38bc6074a]),
    ("german", 1, "Sqrt", 5, [0xc0f081917b4ab4d3, 0x651e6339a1509940, 0x897b64e2f6a08dfb, 0x09ff064696b26748]),
    ("german", 1, "All", 1, [0xc31eb209bf4e7221, 0x88c77e9a817df2d8, 0xd0c0a43e3def8e6b, 0x132f934ce390a9e8]),
    ("german", 1, "All", 5, [0xc219e81cd429bbac, 0xefd72337171166d6, 0x05e77b9c270dba4b, 0x3ae93e756cd31d73]),
    ("german", 2, "Sqrt", 1, [0xa65b9735ade266ac, 0xac9fc899a7648a43, 0x66236e9a10c558e8, 0x66dabbc0d3751d24]),
    ("german", 2, "Sqrt", 5, [0xfa8c1aef9ed9ea4b, 0xea5da9eb436762b1, 0x19429762d5f98e40, 0x2d542d4531e6b227]),
    ("german", 2, "All", 1, [0x02eb394a8342741a, 0xefb74596cd8a9349, 0x16191898cc172267, 0x57a82f5cae65009a]),
    ("german", 2, "All", 5, [0xd1becc0f9eb28d6a, 0xc6f12e32e46d33a3, 0xaed9b47fb6fa0914, 0x74d8817f3ccd751b]),
    ("acs", 0, "Sqrt", 1, [0x8bec0e20542962e0, 0x405361e115741751, 0xf1d7e1a8a3bc73bf, 0x1161c7eb2a31f0c8]),
    ("acs", 0, "Sqrt", 5, [0x0549c93ab577957a, 0xa43cee9d83a43c2d, 0xc086ed685d7b8e75, 0x45a1c0c9f0f32089]),
    ("acs", 0, "All", 1, [0x95a6112f8073141b, 0xf88961b2d751010e, 0x1ac984a97a8f42ec, 0xd43a42f6c7fca344]),
    ("acs", 0, "All", 5, [0x023b707904e9ef7f, 0xe5f5d4b34c8dcfb9, 0x108666986e03051f, 0x1bae1483e3ad2e89]),
    ("acs", 1, "Sqrt", 1, [0x22f1c0b0b02abc46, 0x15e32f3b6ff37dbb, 0x028ce3474fb6040d, 0x6bb0c623db751422]),
    ("acs", 1, "Sqrt", 5, [0xc86aa460ed3f52a9, 0x301e2935a3ae964b, 0xb5bd80a2ad080733, 0x500d527ffd484984]),
    ("acs", 1, "All", 1, [0x4b89db9022c416f9, 0xd0914e585943b10a, 0x1f269932c2628560, 0x3d6919700dd78535]),
    ("acs", 1, "All", 5, [0x0b86907e8698f56d, 0xc28c86e2cd114a93, 0xb7ffe53f58de8039, 0xba4ec29c12e3dae2]),
    ("acs", 2, "Sqrt", 1, [0x4c6caff932c51792, 0x47a6901303b8a99f, 0x1a64668773b60c49, 0x6e0a0dd2e1f53cc5]),
    ("acs", 2, "Sqrt", 5, [0xc043909ae39ad32f, 0x4a0b25da6e82223b, 0x0768f0e6939158db, 0xedb80d19cb56362f]),
    ("acs", 2, "All", 1, [0x3afbe5a599ba5689, 0x019f67563d1720c9, 0x8b6a7965fc96178e, 0xbdb39ff0780f9151]),
    ("acs", 2, "All", 5, [0x31002e2f52747018, 0x825ca968c6beb595, 0x338d8075c8a1ad7b, 0x2af6bded1cdf1410]),
];

/// FNV-1a over a byte string, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fingerprint(forest: &DareForest) -> u64 {
    fnv1a(&persist::to_bytes(forest))
}

fn generators() -> [(&'static str, PaperDataset, f64); 3] {
    [("adult", adult(), 0.02), ("german", german_credit(), 1.0), ("acs", acs_income(), 0.005)]
}

/// Rows `i` of `0..n` with `keep(i)`, ascending.
fn rows(n: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    (0..n).filter(|&i| keep(i)).map(|i| i as u32).collect()
}

/// Runs one sweep point, returning its four hashes and the summed delete
/// reports (so the sweep can prove it exercised retrains and
/// replenishment).
fn run_point(data: &Dataset, cfg: DareConfig) -> ([u64; 4], DeleteReport) {
    let n = data.num_rows();
    let held_out = |i: usize| i.is_multiple_of(17);
    let mut forest = DareForest::fit_on(data, rows(n, |i| !held_out(i)), cfg);
    let fit = fingerprint(&forest);

    // A pattern subset, like the lattice's: one code of attribute 1.
    let first_code = data.code(0, 1);
    let pattern = rows(n, |i| !held_out(i) && data.code(i, 1) == first_code);
    let journal = forest.delete_journaled(&pattern, data);
    let mut report = journal.report;
    let journaled = fingerprint(&forest);
    forest.rollback(journal);
    assert_eq!(fingerprint(&forest), fit, "rollback must restore the fitted forest");

    let batch1 = rows(n, |i| !held_out(i) && i % 7 == 3);
    report.merge(&forest.delete(&batch1, data).expect("batch 1 is held by the forest"));
    let code2 = data.code(1, 2);
    let batch2 = rows(n, |i| !held_out(i) && i % 7 != 3 && data.code(i, 2) == code2);
    report.merge(&forest.delete(&batch2, data).expect("batch 2 is held by the forest"));
    let deleted = fingerprint(&forest);

    let back = rows(n, |i| held_out(i) || (i % 7 == 3));
    forest.insert(&back, data).expect("inserted rows are absent and in range");
    let inserted = fingerprint(&forest);

    ([fit, journaled, deleted, inserted], report)
}

#[test]
fn forests_match_their_golden_fingerprints() {
    let mut observed: Vec<Row> = Vec::new();
    let mut total = DeleteReport::default();
    for (name, generator, scale) in generators() {
        let (data, _) = generator.generate_scaled(scale, 7).expect("generator spec is valid");
        for random_depth in [0, 1, 2] {
            for (mf_name, max_features) in [("Sqrt", MaxFeatures::Sqrt), ("All", MaxFeatures::All)]
            {
                for min_samples_leaf in [1, 5] {
                    let cfg = DareConfig {
                        n_trees: 3,
                        max_depth: 8,
                        random_depth,
                        max_features,
                        min_samples_leaf,
                        seed: 11,
                        n_jobs: Some(1),
                        ..DareConfig::default()
                    };
                    let (hashes, report) = run_point(&data, cfg);
                    total.merge(&report);
                    observed.push((name, random_depth, mf_name, min_samples_leaf, hashes));
                }
            }
        }
    }
    assert!(total.subtrees_retrained > 0, "the sweep must retrain subtrees");
    assert!(total.candidates_replenished > 0, "the sweep must replenish candidate pools");

    if observed.as_slice() != GOLDEN {
        let mut table = String::from("const GOLDEN: &[Row] = &[\n");
        for (name, rd, mf, msl, h) in &observed {
            table.push_str(&format!(
                "    (\"{name}\", {rd}, \"{mf}\", {msl}, [{:#018x}, {:#018x}, {:#018x}, {:#018x}]),\n",
                h[0], h[1], h[2], h[3]
            ));
        }
        table.push_str("];\n");
        const STAGES: [&str; 4] = ["fit", "journaled delete", "chained deletes", "insert"];
        let first_diff = observed.iter().zip(GOLDEN).find(|(o, g)| o != g).map_or(
            "the table length".to_string(),
            |((name, rd, mf, msl, h), (.., g))| {
                let stage = (0..4).find(|&s| h[s] != g[s]).map_or("the sweep point", |s| STAGES[s]);
                format!("{name}, random_depth {rd}, max_features {mf}, min_samples_leaf {msl}, after {stage}")
            },
        );
        panic!("forest fingerprints changed, first at {first_diff}; observed:\n{table}");
    }
}
