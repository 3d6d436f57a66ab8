//! Crash-resumable explain runs: a versioned binary sidecar that
//! snapshots the lattice [`SearchState`] at every level boundary.
//!
//! A checkpoint directory holds one file, [`STATE_FILE`]: magic `FUMK`, a
//! version, the run's [`FumeConfig`], a fingerprint of the run's data and
//! model, and the full [`SearchState`] (frontier with parent floors, every
//! evaluated subset, level stats, prune counters).
//!
//! **Atomicity.** The file is written via tmp-file + rename, so a crash
//! mid-write — including one injected with `FUME_FAULT` at the
//! `mid-checkpoint-write` site — leaves the previous checkpoint loadable,
//! never a truncated one.
//!
//! **Determinism.** The search is deterministic given its data and
//! model: the scratch-pool evaluator restores the deployed forest exactly
//! (including RNG streams) after every unlearn-eval, so re-running a
//! level reproduces its ρ values bit-identically and no evaluator state
//! needs checkpointing. The forest itself is not checkpointed. A resume
//! refits it from the checkpointed configuration (a fit is a function of
//! the configuration and the rows alone, RNG streams included) or takes
//! the caller's model again, and [`fingerprint_model`] makes any other
//! model a [`CheckpointError::Mismatch`]. So `persist`'s reseeding caveat
//! never reaches an explanation: no run explains a reloaded forest.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use fume_forest::persist;
use fume_forest::DareForest;
use fume_lattice::{EvaluatedSubset, LatticeNode, LevelStats, Literal, Op, Predicate, SearchState};
use fume_obs::hash::Fnv1a;
use fume_tabular::bytes::{Buf, BufMut};
use fume_tabular::cast::{code_u16, row_u32};
use fume_tabular::{Dataset, GroupSpec};

use crate::config::FumeConfig;

/// File name of the search-state sidecar inside a checkpoint directory.
pub const STATE_FILE: &str = "search.ckpt";

/// Magic header bytes of the state sidecar.
const MAGIC: &[u8; 4] = b"FUMK";
/// Format version. Version 2's fingerprint covers the deployed model as
/// well as the data; a version-1 file, whose fingerprint covers the data
/// only, is refused.
const VERSION: u16 = 2;

/// Errors from saving, loading, or validating checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The state file does not start with the expected magic bytes.
    BadMagic,
    /// The state-format version is not supported.
    UnsupportedVersion(u16),
    /// The state file ended prematurely or a field is malformed.
    Corrupt(&'static str),
    /// An I/O error, stringified.
    Io(String),
    /// The checkpoint was taken under a different configuration, dataset
    /// or model than the one being resumed with.
    Mismatch(&'static str),
    /// No checkpoint exists at the given directory.
    NothingToResume(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a FUME checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint format version {v}")
            }
            Self::Corrupt(what) => write!(f, "corrupt checkpoint data: {what}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
            Self::Mismatch(what) => write!(
                f,
                "checkpoint does not match this run: {what}"
            ),
            Self::NothingToResume(dir) => {
                write!(f, "no checkpoint to resume at `{dir}`")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// A decoded state sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The configuration the checkpointed run was started with
    /// (`checkpoint_dir` itself is not part of the snapshot).
    pub config: FumeConfig,
    /// Fingerprint of the train/test/group inputs and the deployed model
    /// ([`fingerprint_model`]), for resume validation.
    pub fingerprint: u64,
    /// The search state at the last completed level boundary.
    pub state: SearchState,
}

fn need(buf: &&[u8], n: usize, what: &'static str) -> Result<(), CheckpointError> {
    if buf.remaining() < n {
        Err(CheckpointError::Corrupt(what))
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// config section
// ---------------------------------------------------------------------

fn metric_tag(m: fume_fairness::FairnessMetric) -> u8 {
    use fume_fairness::FairnessMetric::*;
    match m {
        StatisticalParity => 0,
        EqualizedOdds => 1,
        PredictiveParity => 2,
        EqualOpportunity => 3,
    }
}

fn metric_from_tag(tag: u8) -> Result<fume_fairness::FairnessMetric, CheckpointError> {
    use fume_fairness::FairnessMetric::*;
    Ok(match tag {
        0 => StatisticalParity,
        1 => EqualizedOdds,
        2 => PredictiveParity,
        3 => EqualOpportunity,
        _ => return Err(CheckpointError::Corrupt("metric tag")),
    })
}

/// Encodes the run-defining parts of a [`FumeConfig`] (everything except
/// `checkpoint_dir`, which names where the checkpoint lives, not what
/// the run computes). Resume validation compares these bytes.
fn encode_config(out: &mut Vec<u8>, cfg: &FumeConfig) {
    out.put_u8(metric_tag(cfg.metric));
    out.put_f64_le(cfg.support.min);
    out.put_f64_le(cfg.support.max);
    out.put_u32_le(row_u32(cfg.max_literals));
    out.put_u32_le(row_u32(cfg.top_k));
    persist::encode_config_into(out, &cfg.forest);
    let t = &cfg.toggles;
    let toggle_bits = u8::from(t.rule1_satisfiability)
        | u8::from(t.rule4_parent_dominance) << 1
        | u8::from(t.rule5_positive_only) << 2
        | u8::from(t.prune_redundant) << 3;
    out.put_u8(toggle_bits);
    out.put_u32_le(row_u32(cfg.exclude_attrs.len()));
    for &a in &cfg.exclude_attrs {
        out.put_u16_le(a);
    }
    out.put_u8(match cfg.literal_gen {
        fume_lattice::LiteralGen::EqOnly => 0,
        fume_lattice::LiteralGen::WithRanges => 1,
    });
    match cfg.n_jobs {
        None => {
            out.put_u8(0);
            out.put_u32_le(0);
        }
        Some(j) => {
            out.put_u8(1);
            out.put_u32_le(row_u32(j));
        }
    }
}

fn decode_config(buf: &mut &[u8]) -> Result<FumeConfig, CheckpointError> {
    need(buf, 1 + 8 + 8 + 4 + 4, "config header")?;
    let metric = metric_from_tag(buf.get_u8())?;
    let min = buf.get_f64_le();
    let max = buf.get_f64_le();
    let support = fume_lattice::SupportRange::new(min, max)
        .map_err(|_| CheckpointError::Corrupt("support range"))?;
    let max_literals = buf.get_u32_le() as usize;
    let top_k = buf.get_u32_le() as usize;
    let forest = {
        // The forest config is length-checked by its own decoder; map its
        // errors into this format's vocabulary.
        let mut cursor: &[u8] = buf;
        let before = cursor.len();
        let cfg = persist::decode_config_from(&mut cursor)
            .map_err(|_| CheckpointError::Corrupt("forest config"))?;
        let consumed = before - cursor.len();
        *buf = &buf[consumed..];
        cfg
    };
    need(buf, 1 + 4, "toggles")?;
    let toggle_bits = buf.get_u8();
    let toggles = fume_lattice::RuleToggles {
        rule1_satisfiability: toggle_bits & 1 != 0,
        rule4_parent_dominance: toggle_bits & 2 != 0,
        rule5_positive_only: toggle_bits & 4 != 0,
        prune_redundant: toggle_bits & 8 != 0,
    };
    let n_excl = buf.get_u32_le() as usize;
    need(buf, n_excl * 2 + 1 + 1 + 4, "exclusions")?;
    let mut exclude_attrs = Vec::with_capacity(n_excl);
    for _ in 0..n_excl {
        exclude_attrs.push(buf.get_u16_le());
    }
    let literal_gen = match buf.get_u8() {
        0 => fume_lattice::LiteralGen::EqOnly,
        1 => fume_lattice::LiteralGen::WithRanges,
        _ => return Err(CheckpointError::Corrupt("literal_gen tag")),
    };
    let jobs_tag = buf.get_u8();
    let jobs_val = buf.get_u32_le() as usize;
    let n_jobs = match jobs_tag {
        0 => None,
        1 => Some(jobs_val),
        _ => return Err(CheckpointError::Corrupt("n_jobs tag")),
    };
    Ok(FumeConfig {
        metric,
        support,
        max_literals,
        top_k,
        forest,
        toggles,
        exclude_attrs,
        literal_gen,
        n_jobs,
        checkpoint_dir: None,
    })
}

// ---------------------------------------------------------------------
// predicate / state sections
// ---------------------------------------------------------------------

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Eq => 0,
        Op::Ne => 1,
        Op::Lt => 2,
        Op::Le => 3,
        Op::Gt => 4,
        Op::Ge => 5,
    }
}

fn op_from_tag(tag: u8) -> Result<Op, CheckpointError> {
    Ok(match tag {
        0 => Op::Eq,
        1 => Op::Ne,
        2 => Op::Lt,
        3 => Op::Le,
        4 => Op::Gt,
        5 => Op::Ge,
        _ => return Err(CheckpointError::Corrupt("literal op tag")),
    })
}

fn encode_predicate(out: &mut Vec<u8>, pred: &Predicate) {
    out.put_u16_le(code_u16(pred.len()));
    for l in pred.literals() {
        out.put_u16_le(l.attr);
        out.put_u8(op_tag(l.op));
        out.put_u16_le(l.value);
    }
}

fn decode_predicate(buf: &mut &[u8]) -> Result<Predicate, CheckpointError> {
    need(buf, 2, "predicate length")?;
    let n = buf.get_u16_le() as usize;
    need(buf, n * 5, "predicate literals")?;
    let mut lits = Vec::with_capacity(n);
    for _ in 0..n {
        let attr = buf.get_u16_le();
        let op = op_from_tag(buf.get_u8())?;
        let value = buf.get_u16_le();
        lits.push(Literal { attr, op, value });
    }
    Ok(Predicate::new(lits))
}

fn encode_rows(out: &mut Vec<u8>, rows: &[u32]) {
    out.put_u32_le(row_u32(rows.len()));
    for &r in rows {
        out.put_u32_le(r);
    }
}

fn decode_rows(buf: &mut &[u8]) -> Result<Vec<u32>, CheckpointError> {
    need(buf, 4, "row count")?;
    let n = buf.get_u32_le() as usize;
    need(buf, n * 4, "rows")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push(buf.get_u32_le());
    }
    Ok(rows)
}

fn encode_state(out: &mut Vec<u8>, state: &SearchState) {
    out.put_u32_le(row_u32(state.next_level));
    out.put_u8(u8::from(state.done));
    out.put_u64_le(state.possible as u64);
    out.put_u64_le(state.pruned_rule1 as u64);
    out.put_u64_le(state.pruned_redundant as u64);
    out.put_u64_le(state.evaluations as u64);

    out.put_u32_le(row_u32(state.levels.len()));
    for l in &state.levels {
        for v in [
            l.level,
            l.possible,
            l.generated,
            l.pruned_rule1,
            l.pruned_redundant,
            l.pruned_support_low,
            l.oversized,
            l.pruned_rule3,
            l.explored,
            l.pruned_rule4,
            l.pruned_rule5,
        ] {
            out.put_u64_le(v as u64);
        }
    }

    out.put_u32_le(row_u32(state.evaluated.len()));
    for s in &state.evaluated {
        encode_predicate(out, &s.predicate);
        encode_rows(out, &s.rows);
        out.put_f64_le(s.support);
        out.put_f64_le(s.rho);
        out.put_u32_le(row_u32(s.level));
    }

    out.put_u32_le(row_u32(state.frontier.len()));
    for node in &state.frontier {
        encode_predicate(out, &node.predicate);
        encode_rows(out, &node.rows);
        match node.rho {
            None => {
                out.put_u8(0);
                out.put_f64_le(0.0);
            }
            Some(r) => {
                out.put_u8(1);
                out.put_f64_le(r);
            }
        }
        out.put_f64_le(node.parent_floor);
    }
}

fn decode_state(buf: &mut &[u8]) -> Result<SearchState, CheckpointError> {
    need(buf, 4 + 1 + 8 * 4, "state header")?;
    let next_level = buf.get_u32_le() as usize;
    let done = match buf.get_u8() {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Corrupt("done flag")),
    };
    let possible = buf.get_u64_le() as usize;
    let pruned_rule1 = buf.get_u64_le() as usize;
    let pruned_redundant = buf.get_u64_le() as usize;
    let evaluations = buf.get_u64_le() as usize;

    need(buf, 4, "level count")?;
    let n_levels = buf.get_u32_le() as usize;
    need(buf, n_levels * 11 * 8, "levels")?;
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        levels.push(LevelStats {
            level: buf.get_u64_le() as usize,
            possible: buf.get_u64_le() as usize,
            generated: buf.get_u64_le() as usize,
            pruned_rule1: buf.get_u64_le() as usize,
            pruned_redundant: buf.get_u64_le() as usize,
            pruned_support_low: buf.get_u64_le() as usize,
            oversized: buf.get_u64_le() as usize,
            pruned_rule3: buf.get_u64_le() as usize,
            explored: buf.get_u64_le() as usize,
            pruned_rule4: buf.get_u64_le() as usize,
            pruned_rule5: buf.get_u64_le() as usize,
        });
    }

    need(buf, 4, "evaluated count")?;
    let n_eval = buf.get_u32_le() as usize;
    // Every evaluated entry needs at least its fixed-size tail; a
    // corrupted count must not drive allocation.
    if n_eval > buf.remaining() {
        return Err(CheckpointError::Corrupt("evaluated count exceeds input size"));
    }
    let mut evaluated = Vec::with_capacity(n_eval);
    for _ in 0..n_eval {
        let predicate = decode_predicate(buf)?;
        let rows = decode_rows(buf)?;
        need(buf, 8 + 8 + 4, "evaluated tail")?;
        let support = buf.get_f64_le();
        let rho = buf.get_f64_le();
        let level = buf.get_u32_le() as usize;
        if !rho.is_finite() {
            return Err(CheckpointError::Corrupt("non-finite rho"));
        }
        evaluated.push(EvaluatedSubset { predicate, rows: rows.into(), support, rho, level });
    }

    need(buf, 4, "frontier count")?;
    let n_frontier = buf.get_u32_le() as usize;
    if n_frontier > buf.remaining() {
        return Err(CheckpointError::Corrupt("frontier count exceeds input size"));
    }
    let mut frontier = Vec::with_capacity(n_frontier);
    for _ in 0..n_frontier {
        let predicate = decode_predicate(buf)?;
        let rows = decode_rows(buf)?;
        need(buf, 1 + 8 + 8, "frontier tail")?;
        let rho = match buf.get_u8() {
            0 => {
                let _ = buf.get_f64_le();
                None
            }
            1 => Some(buf.get_f64_le()),
            _ => return Err(CheckpointError::Corrupt("rho tag")),
        };
        let parent_floor = buf.get_f64_le();
        frontier.push(LatticeNode { predicate, rows: rows.into(), rho, parent_floor });
    }

    Ok(SearchState {
        next_level,
        frontier,
        possible,
        pruned_rule1,
        pruned_redundant,
        evaluated,
        levels,
        evaluations,
        done,
    })
}

// ---------------------------------------------------------------------
// fingerprint
// ---------------------------------------------------------------------

/// A content fingerprint of the explain inputs. Resuming validates it so
/// a checkpoint is never silently continued against different data.
pub fn fingerprint(train: &Dataset, test: &Dataset, group: GroupSpec) -> u64 {
    let mut h = Fnv1a::new();
    let mut put = |v: u64| h.write(&v.to_le_bytes());
    for data in [train, test] {
        put(data.num_rows() as u64);
        put(data.num_attributes() as u64);
        for attr in 0..data.num_attributes() {
            for &code in data.column(attr) {
                put(u64::from(code));
            }
        }
        for &label in data.labels() {
            put(u64::from(label));
        }
    }
    put(group.attr as u64);
    put(u64::from(group.privileged_code));
    h.finish()
}

/// Folds the deployed forest into a data [`fingerprint`]: its persisted
/// bytes, and each tree's RNG stream position, which those bytes do not
/// carry and DaRE's subtree rebuilds draw from. A checkpoint stores this
/// value, so resuming with any other model — another fit, or a save/load
/// copy whose streams were reseeded — is a mismatch, found before that
/// model predicts anything.
pub fn fingerprint_model(data: u64, forest: &DareForest) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&data.to_le_bytes());
    h.write(&persist::to_bytes(forest));
    for tree in forest.trees() {
        for lane in tree.rng_state() {
            h.write(&lane.to_le_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------
// whole-file codec + directory API
// ---------------------------------------------------------------------

fn encode(config: &FumeConfig, fp: u64, state: &SearchState) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 12);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    encode_config(&mut out, config);
    out.put_u64_le(fp);
    encode_state(&mut out, state);
    out
}

fn decode(mut data: &[u8]) -> Result<Checkpoint, CheckpointError> {
    let buf = &mut data;
    need(buf, 4 + 2, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let config = decode_config(buf)?;
    need(buf, 8, "fingerprint")?;
    let fp = buf.get_u64_le();
    let state = decode_state(buf)?;
    if !buf.is_empty() {
        return Err(CheckpointError::Corrupt("trailing bytes"));
    }
    Ok(Checkpoint { config, fingerprint: fp, state })
}

fn state_path(dir: &Path) -> PathBuf {
    dir.join(STATE_FILE)
}

/// Replaces `path` with `bytes` atomically and durably: the bytes are
/// synced under a `.tmp` name, renamed over `path`, and the directory is
/// synced, so a crash or power cut leaves either the old file or the new
/// one, never a truncated one.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = persist::tmp_sibling(path);
    persist::write_synced(&tmp, bytes)?;
    // The injectable crash window: bytes are on disk under the tmp name
    // but the rename has not happened — the previous checkpoint (if any)
    // is still the one a resume will see.
    fume_obs::fault::fault_point("mid-checkpoint-write");
    std::fs::rename(&tmp, path)?;
    persist::sync_parent(path)?;
    Ok(())
}

/// Saves the search state (atomically) into `dir`, creating it if
/// needed.
pub fn save_state(
    dir: &Path,
    config: &FumeConfig,
    fp: u64,
    state: &SearchState,
) -> Result<(), CheckpointError> {
    let _span = fume_obs::span!(
        "ckpt.save",
        level = state.next_level,
        done = state.done
    );
    std::fs::create_dir_all(dir)?;
    let bytes = encode(config, fp, state);
    fume_obs::counter!("ckpt.bytes_written", bytes.len());
    fume_obs::counter!("ckpt.levels_saved", 1);
    fume_obs::histogram!("ckpt.state_bytes", bytes.len());
    write_atomic(&state_path(dir), &bytes)
}

/// Loads the state sidecar from `dir`. A missing file is
/// [`CheckpointError::NothingToResume`]; anything unreadable is a clean
/// error, never a panic.
pub fn load_state(dir: &Path) -> Result<Checkpoint, CheckpointError> {
    let _span = fume_obs::span!("ckpt.load");
    let path = state_path(dir);
    let data = match std::fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CheckpointError::NothingToResume(dir.display().to_string()))
        }
        Err(e) => return Err(e.into()),
    };
    decode(&data)
}

/// Validates that a loaded checkpoint belongs to this run: same
/// run-defining configuration, same data and model fingerprint.
pub fn validate(
    ckpt: &Checkpoint,
    config: &FumeConfig,
    fp: u64,
) -> Result<(), CheckpointError> {
    let mut live = Vec::new();
    encode_config(&mut live, config);
    let mut saved = Vec::new();
    encode_config(&mut saved, &ckpt.config);
    if live != saved {
        return Err(CheckpointError::Mismatch(
            "configuration differs from the checkpointed run",
        ));
    }
    if fp != ckpt.fingerprint {
        return Err(CheckpointError::Mismatch(
            "train/test data, group or model differ from the checkpointed run",
        ));
    }
    Ok(())
}

/// Deep structural sanity checks on a decoded state, run under
/// `FUME_DEEPCHECK=1` by the resume path: row selections sorted and
/// unique, levels contiguous, counters internally consistent.
pub fn deepcheck_state(state: &SearchState) -> Result<(), CheckpointError> {
    for (i, l) in state.levels.iter().enumerate() {
        if l.level != i + 1 {
            return Err(CheckpointError::Corrupt("levels not contiguous"));
        }
        if l.explored + l.pruned_support_low + l.oversized != l.generated {
            return Err(CheckpointError::Corrupt("level buckets disagree"));
        }
    }
    let explored: usize = state.levels.iter().map(|l| l.explored).sum();
    if explored != state.evaluations || state.evaluated.len() != explored {
        return Err(CheckpointError::Corrupt("evaluation counters disagree"));
    }
    let mut seen: HashMap<&Predicate, ()> = HashMap::new();
    for node in &state.frontier {
        if node.rows.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CheckpointError::Corrupt("frontier rows not sorted/unique"));
        }
        if seen.insert(&node.predicate, ()).is_some() {
            return Err(CheckpointError::Corrupt("duplicate frontier predicate"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fume_forest::DareConfig;
    use fume_lattice::{SearchDriver, SearchParams, SupportRange};
    use fume_tabular::datasets::planted_toy;

    fn sample_state() -> SearchState {
        let (data, _) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let params = SearchParams::new(SupportRange::new(0.05, 0.6).unwrap(), 3).unwrap();
        let mut driver = SearchDriver::new(&data, &params);
        let eval = |_: &Predicate, rows: &[u32]| 1.0 / (1.0 + rows.len() as f64);
        assert!(driver.step(&eval).unwrap());
        driver.state().clone()
    }

    fn sample_config() -> FumeConfig {
        FumeConfig::default()
            .with_max_literals(3)
            .with_jobs(2)
            .with_literal_gen(fume_lattice::LiteralGen::WithRanges)
    }

    #[test]
    fn state_roundtrips_bytewise() {
        let state = sample_state();
        let cfg = sample_config();
        let bytes = encode(&cfg, 0xFEED, &state);
        let ckpt = decode(&bytes).unwrap();
        assert_eq!(ckpt.state, state);
        assert_eq!(ckpt.fingerprint, 0xFEED);
        assert_eq!(ckpt.config, cfg);
        // Encode → decode → encode is stable.
        assert_eq!(encode(&ckpt.config, ckpt.fingerprint, &ckpt.state), bytes);
    }

    #[test]
    fn frontier_rho_and_floor_extremes_roundtrip() {
        let mut state = sample_state();
        // Exercise the Option tags and non-finite floors explicitly.
        if let Some(first) = state.frontier.first_mut() {
            first.rho = Some(-0.25);
            first.parent_floor = f64::NEG_INFINITY;
        }
        if let Some(last) = state.frontier.last_mut() {
            last.rho = None;
            last.parent_floor = f64::INFINITY;
        }
        let cfg = FumeConfig::default();
        let ckpt = decode(&encode(&cfg, 1, &state)).unwrap();
        assert_eq!(ckpt.state.frontier, state.frontier);
    }

    #[test]
    fn corrupt_and_truncated_inputs_error_cleanly() {
        let state = sample_state();
        let cfg = sample_config();
        let good = encode(&cfg, 42, &state);
        assert_eq!(decode(b"junk!!"), Err(CheckpointError::BadMagic));
        assert_eq!(decode(b"hi"), Err(CheckpointError::Corrupt("header")));
        let mut versioned = good.clone();
        versioned[4] = 0xFF;
        assert!(matches!(decode(&versioned), Err(CheckpointError::UnsupportedVersion(_))));
        // A version-1 file fingerprints the data only: refused, not read.
        versioned[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(decode(&versioned), Err(CheckpointError::UnsupportedVersion(1)));
        // Truncation at every prefix length is an error, never a panic.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "prefix of {cut} bytes");
        }
        // Trailing garbage is rejected too.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(CheckpointError::Corrupt("trailing bytes")));
    }

    #[test]
    fn save_load_via_directory_and_missing_dir_is_nothing_to_resume() {
        let dir = std::env::temp_dir().join("fume_ckpt_unit_test");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(
            load_state(&dir),
            Err(CheckpointError::NothingToResume(_))
        ));
        let state = sample_state();
        let cfg = sample_config();
        save_state(&dir, &cfg, 7, &state).unwrap();
        let ckpt = load_state(&dir).unwrap();
        assert_eq!(ckpt.state, state);
        validate(&ckpt, &cfg, 7).unwrap();
        // Wrong fingerprint / config are mismatches, not corruption.
        assert!(matches!(
            validate(&ckpt, &cfg, 8),
            Err(CheckpointError::Mismatch(_))
        ));
        let other = cfg.clone().with_top_k(9);
        assert!(matches!(
            validate(&ckpt, &other, 7),
            Err(CheckpointError::Mismatch(_))
        ));
        // checkpoint_dir itself is not run-defining.
        let mut relocated = cfg;
        relocated.checkpoint_dir = Some(PathBuf::from("/elsewhere"));
        validate(&ckpt, &relocated, 7).unwrap();
    }

    #[test]
    fn fingerprint_tracks_content_and_group() {
        let (a, group) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let (b, _) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let (c, _) = planted_toy().generate_scaled(0.2, 8).unwrap();
        assert_eq!(fingerprint(&a, &b, group), fingerprint(&b, &a, group));
        assert_ne!(fingerprint(&a, &b, group), fingerprint(&a, &c, group));
        let other = GroupSpec { attr: group.attr, privileged_code: group.privileged_code ^ 1 };
        assert_ne!(fingerprint(&a, &b, group), fingerprint(&a, &b, other));
    }

    /// Every `search.ckpt` stores this value and resume compares it, so
    /// it must not move when the hashing code does.
    #[test]
    fn fingerprint_value_is_pinned() {
        let (a, group) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let (c, _) = planted_toy().generate_scaled(0.2, 8).unwrap();
        assert_eq!(fingerprint(&a, &c, group), 0x0ff2_900d_4744_cf8d);
    }

    /// A refit equals the original, RNG streams included, so it resumes;
    /// a save/load copy predicts the same but rebuilds from reseeded
    /// streams, so it does not.
    #[test]
    fn model_fingerprint_tells_a_refit_from_a_reloaded_copy() {
        let (a, group) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let fp = fingerprint(&a, &a, group);
        let forest = DareForest::fit(&a, DareConfig::small(7));
        let refit = DareForest::fit(&a, DareConfig::small(7));
        let reloaded = persist::from_bytes(&persist::to_bytes(&forest)).unwrap();
        assert_eq!(fingerprint_model(fp, &forest), fingerprint_model(fp, &refit));
        assert_ne!(fingerprint_model(fp, &forest), fingerprint_model(fp, &reloaded));
        let other = DareForest::fit(&a, DareConfig::small(8));
        assert_ne!(fingerprint_model(fp, &forest), fingerprint_model(fp, &other));
        assert_ne!(fingerprint_model(fp, &forest), fingerprint_model(fp ^ 1, &forest));
    }

    /// Every version-2 `search.ckpt` stores this value for its model.
    #[test]
    fn model_fingerprint_value_is_pinned() {
        let (a, group) = planted_toy().generate_scaled(0.2, 7).unwrap();
        let (c, _) = planted_toy().generate_scaled(0.2, 8).unwrap();
        let forest = DareForest::fit(&a, DareConfig::small(7));
        assert_eq!(fingerprint_model(fingerprint(&a, &c, group), &forest), 0xdee1_7753_27c7_e0d3);
    }

    #[test]
    fn deepcheck_accepts_live_states_and_rejects_tampered_ones() {
        let state = sample_state();
        deepcheck_state(&state).unwrap();
        let mut bad = state.clone();
        bad.evaluations += 1;
        assert!(deepcheck_state(&bad).is_err());
        let mut bad = state;
        if let Some(l) = bad.levels.first_mut() {
            l.level = 9;
        }
        assert!(deepcheck_state(&bad).is_err());
    }
}
