//! Forest persistence: a compact, versioned binary format.
//!
//! A deployed unlearnable model must outlive the process that trained it —
//! deletion requests (GDPR-style or FUME's what-if probes) arrive long
//! after training. This module serializes a [`DareForest`] including all
//! cached statistics, so a reloaded forest unlearns exactly as the saved
//! one would.
//!
//! Each tree is written in preorder from its root, through the
//! [`NodeRef`] view, so a forest whose node store holds displaced slots
//! writes the same bytes as a freshly compacted one, and a loaded tree's
//! store is laid out as a fit lays it out.
//!
//! One caveat, stated loudly: the per-tree RNG **stream position** is not
//! preserved. A reloaded tree reseeds deterministically from
//! `(config.seed, tree index)`, so save→load→save is stable and reloaded
//! behavior is reproducible, but a reloaded forest's *future* retrain
//! draws differ from the never-saved original's. Both are draws from the
//! same distribution — the exactness guarantee is unaffected. The caveat
//! does not reach an explanation: a checkpointed FUME run persists only
//! its search state, and fingerprints the forest's bytes together with
//! each tree's [`DareTree::rng_state`] so that a resume with a reloaded
//! copy is refused.

use std::path::Path;

use fume_tabular::bytes::{Buf, BufMut};
use fume_tabular::cast::{code_u16, row_u32};

use crate::config::{DareConfig, MaxFeatures};
use crate::forest::DareForest;
use crate::node::{Candidate, Cold, NodeRef, NodeStore};
use crate::tree::DareTree;

/// Magic header bytes.
const MAGIC: &[u8; 4] = b"DARE";
/// Format version.
const VERSION: u16 = 1;
/// Hard recursion guard while decoding untrusted input.
const MAX_DECODE_DEPTH: usize = 512;

/// Errors from encoding/decoding forests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input does not start with the expected magic bytes.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// The input ended prematurely or a field is malformed.
    Corrupt(&'static str),
    /// An I/O error, stringified.
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a DaRE forest file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::Corrupt(what) => write!(f, "corrupt forest data: {what}"),
            Self::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

fn need(buf: &&[u8], n: usize, what: &'static str) -> Result<(), PersistError> {
    if buf.remaining() < n {
        Err(PersistError::Corrupt(what))
    } else {
        Ok(())
    }
}

fn encode_config(out: &mut Vec<u8>, cfg: &DareConfig) {
    out.put_u32_le(row_u32(cfg.n_trees));
    out.put_u32_le(row_u32(cfg.max_depth));
    out.put_u32_le(row_u32(cfg.random_depth));
    out.put_u32_le(row_u32(cfg.n_thresholds));
    match cfg.max_features {
        MaxFeatures::All => {
            out.put_u8(0);
            out.put_u32_le(0);
        }
        MaxFeatures::Sqrt => {
            out.put_u8(1);
            out.put_u32_le(0);
        }
        MaxFeatures::Count(c) => {
            out.put_u8(2);
            out.put_u32_le(row_u32(c));
        }
    }
    out.put_u32_le(cfg.min_samples_split);
    out.put_u32_le(cfg.min_samples_leaf);
    out.put_u64_le(cfg.seed);
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

fn decode_config(buf: &mut &[u8]) -> Result<DareConfig, PersistError> {
    need(buf, 4 * 4 + 1 + 4 + 4 + 4 + 8 + 1 + 4, "config")?;
    let n_trees = buf.get_u32_le() as usize;
    let max_depth = buf.get_u32_le() as usize;
    let random_depth = buf.get_u32_le() as usize;
    let n_thresholds = buf.get_u32_le() as usize;
    let mf_tag = buf.get_u8();
    let mf_val = buf.get_u32_le() as usize;
    let max_features = match mf_tag {
        0 => MaxFeatures::All,
        1 => MaxFeatures::Sqrt,
        2 => MaxFeatures::Count(mf_val),
        _ => return Err(PersistError::Corrupt("max_features tag")),
    };
    let min_samples_split = buf.get_u32_le();
    let min_samples_leaf = buf.get_u32_le();
    let seed = buf.get_u64_le();
    let jobs_tag = buf.get_u8();
    let jobs_val = buf.get_u32_le() as usize;
    let n_jobs = match jobs_tag {
        0 => None,
        1 => Some(jobs_val),
        _ => return Err(PersistError::Corrupt("n_jobs tag")),
    };
    Ok(DareConfig {
        n_trees,
        max_depth,
        random_depth,
        n_thresholds,
        max_features,
        min_samples_split,
        min_samples_leaf,
        seed,
        n_jobs,
    })
}

fn encode_node(out: &mut Vec<u8>, node: NodeRef<'_>) {
    match node.children() {
        None => {
            out.put_u8(0);
            out.put_u32_le(node.n());
            for &id in node.ids() {
                out.put_u32_le(id);
            }
            out.put_u32_le(node.n_pos());
        }
        Some([left, right]) => {
            out.put_u8(1);
            out.put_u16_le(node.attr());
            out.put_u16_le(node.threshold());
            out.put_u8(u8::from(node.is_random()));
            out.put_u32_le(node.n());
            out.put_u32_le(node.n_pos());
            out.put_u32_le(node.chosen());
            out.put_u16_le(code_u16(node.candidates().len()));
            for c in node.candidates() {
                out.put_u16_le(c.attr);
                out.put_u16_le(c.threshold);
                out.put_u32_le(c.n_left);
                out.put_u32_le(c.n_left_pos);
            }
            encode_node(out, left);
            encode_node(out, right);
        }
    }
}

/// Decodes one node and its subtree into `store` in preorder, returning
/// its slot. `ids` and `pool` are reusable staging buffers.
fn decode_node(
    buf: &mut &[u8],
    depth: usize,
    store: &mut NodeStore,
    ids: &mut Vec<u32>,
    pool: &mut Vec<Candidate>,
) -> Result<u32, PersistError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(PersistError::Corrupt("node nesting too deep"));
    }
    need(buf, 1, "node tag")?;
    match buf.get_u8() {
        0 => {
            need(buf, 4, "leaf id count")?;
            let n = buf.get_u32_le() as usize;
            need(buf, n * 4 + 4, "leaf body")?;
            ids.clear();
            for _ in 0..n {
                ids.push(buf.get_u32_le());
            }
            let n_pos = buf.get_u32_le();
            if (n_pos as usize) > n {
                return Err(PersistError::Corrupt("leaf n_pos exceeds n"));
            }
            Ok(store.push_leaf(ids, n_pos))
        }
        1 => {
            need(buf, 2 + 2 + 1 + 4 + 4 + 4 + 2, "internal header")?;
            let attr = buf.get_u16_le();
            let threshold = buf.get_u16_le();
            let random = buf.get_u8() != 0;
            let n = buf.get_u32_le();
            let n_pos = buf.get_u32_le();
            let chosen = buf.get_u32_le();
            let n_cands = buf.get_u16_le() as usize;
            need(buf, n_cands * (2 + 2 + 4 + 4), "candidates")?;
            pool.clear();
            for _ in 0..n_cands {
                pool.push(Candidate {
                    attr: buf.get_u16_le(),
                    threshold: buf.get_u16_le(),
                    n_left: buf.get_u32_le(),
                    n_left_pos: buf.get_u32_le(),
                });
            }
            if !random && (chosen as usize) >= pool.len() {
                return Err(PersistError::Corrupt("chosen index out of range"));
            }
            let cold = Cold { n, n_pos, lo: 0, len: 0, chosen, random };
            let slot = store.push_internal(attr, threshold, cold, pool);
            let left = decode_node(buf, depth + 1, store, ids, pool)?;
            let right = decode_node(buf, depth + 1, store, ids, pool)?;
            store.set_kids(slot, [left, right]);
            let (l, r) = (store.node(left), store.node(right));
            let sum = |a: u32, b: u32| u64::from(a) + u64::from(b);
            if sum(l.n(), r.n()) != u64::from(n) || sum(l.n_pos(), r.n_pos()) != u64::from(n_pos) {
                return Err(PersistError::Corrupt("node counts disagree with children"));
            }
            Ok(slot)
        }
        _ => Err(PersistError::Corrupt("unknown node tag")),
    }
}

/// Serializes a forest to bytes.
pub fn to_bytes(forest: &DareForest) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 << 16);
    out.put_slice(MAGIC);
    out.put_u16_le(VERSION);
    encode_config(&mut out, forest.config());
    out.put_u32_le(forest.num_instances());
    out.put_u32_le(row_u32(forest.trees().len()));
    for tree in forest.trees() {
        encode_node(&mut out, tree.root());
    }
    out
}

/// Deserializes a forest from bytes.
pub fn from_bytes(mut data: &[u8]) -> Result<DareForest, PersistError> {
    let buf = &mut data;
    need(buf, 4 + 2, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let config = decode_config(buf)?;
    need(buf, 8, "tree counts")?;
    let n_instances = buf.get_u32_le();
    let n_trees = buf.get_u32_le() as usize;
    // A corrupted count must not drive allocation: every tree needs at
    // least one node tag byte, so more trees than remaining bytes is
    // impossible in well-formed input.
    if n_trees > buf.remaining() {
        return Err(PersistError::Corrupt("tree count exceeds input size"));
    }
    let mut trees = Vec::with_capacity(n_trees);
    let (mut ids, mut pool) = (Vec::new(), Vec::new());
    for index in 0..n_trees {
        let mut store = NodeStore::default();
        let root = decode_node(buf, 0, &mut store, &mut ids, &mut pool)?;
        if store.node(root).n() != n_instances {
            return Err(PersistError::Corrupt("tree instance count mismatch"));
        }
        trees.push(DareTree::from_saved(store, root, &config, index));
    }
    if buf.has_remaining() {
        return Err(PersistError::Corrupt("trailing bytes"));
    }
    DareForest::from_saved(trees, config, n_instances)
        .ok_or(PersistError::Corrupt("tree count disagrees with config"))
}

/// Encodes a [`DareConfig`] into `out` using this format's field layout.
/// Exposed so sibling formats (e.g. `fume-core`'s search checkpoints)
/// embed configs byte-compatibly instead of inventing a second encoding.
pub fn encode_config_into(out: &mut Vec<u8>, cfg: &DareConfig) {
    encode_config(out, cfg);
}

/// Decodes a [`DareConfig`] previously written by [`encode_config_into`],
/// advancing `buf` past it.
pub fn decode_config_from(buf: &mut &[u8]) -> Result<DareConfig, PersistError> {
    decode_config(buf)
}

/// Saves a forest to a file.
pub fn save(forest: &DareForest, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let _span = fume_obs::span!("forest.persist.save", trees = forest.trees().len());
    let bytes = to_bytes(forest);
    fume_obs::gauge!("forest.persist.bytes", bytes.len() as f64);
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Saves a forest atomically and durably: the bytes land in a `.tmp`
/// sibling that is synced to disk, the sibling is renamed over `path`,
/// and the parent directory is synced, so neither a crash nor a power cut
/// can leave a truncated file where a loadable forest used to be.
pub fn save_atomic(forest: &DareForest, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let _span = fume_obs::span!("forest.persist.save", trees = forest.trees().len());
    let bytes = to_bytes(forest);
    fume_obs::gauge!("forest.persist.bytes", bytes.len() as f64);
    let tmp = tmp_sibling(path);
    write_synced(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    sync_parent(path)?;
    Ok(())
}

/// `path` with `.tmp` appended: where an atomic writer stages its bytes.
pub fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    tmp.into()
}

/// Writes `bytes` to `path` and syncs the file's data to disk before
/// returning: the first half of an atomic replace, which must not rename
/// a file whose bytes may still be only in the page cache.
pub fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Syncs the directory holding `path`, so a rename into it survives a
/// power cut: the second half of an atomic replace.
pub fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// Loads a forest from a file.
pub fn load(path: impl AsRef<Path>) -> Result<DareForest, PersistError> {
    let _span = fume_obs::span!("forest.persist.load");
    let data = std::fs::read(path)?;
    from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_forest;
    use fume_tabular::datasets::planted_toy;
    use fume_tabular::Classifier;

    fn forest() -> (DareForest, fume_tabular::Dataset) {
        let (data, _) = planted_toy().generate_scaled(0.15, 81).unwrap();
        let cfg = DareConfig { n_trees: 6, max_depth: 6, seed: 81, ..DareConfig::default() };
        (DareForest::fit(&data, cfg), data)
    }

    #[test]
    fn roundtrip_preserves_structure_and_predictions() {
        let (f, data) = forest();
        let bytes = to_bytes(&f);
        let g = from_bytes(&bytes).unwrap();
        assert_eq!(g.num_instances(), f.num_instances());
        assert_eq!(g.config(), f.config());
        assert_eq!(g.trees().len(), f.trees().len());
        for (a, b) in f.trees().iter().zip(g.trees()) {
            assert_eq!(a.root(), b.root());
            assert_eq!(a.store(), b.store(), "a load lays the store out as a fit does");
        }
        assert_eq!(f.predict_proba(&data), g.predict_proba(&data));
        let v = validate_forest(&g, &data);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn reloaded_forest_still_unlearns_exactly() {
        let (f, data) = forest();
        let mut g = from_bytes(&to_bytes(&f)).unwrap();
        g.delete(&[0, 3, 9, 27], &data).unwrap();
        assert_eq!(g.num_instances() + 4, f.num_instances());
        let v = validate_forest(&g, &data);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn save_load_save_is_stable() {
        let (f, _) = forest();
        let b1 = to_bytes(&f);
        let g = from_bytes(&b1).unwrap();
        let b2 = to_bytes(&g);
        assert_eq!(b1, b2);
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicked() {
        let (f, _) = forest();
        let good = to_bytes(&f);
        assert_eq!(from_bytes(b"nope!!"), Err(PersistError::BadMagic));
        assert_eq!(from_bytes(b"hi"), Err(PersistError::Corrupt("header")));
        assert!(matches!(
            from_bytes(&good[..10]),
            Err(PersistError::Corrupt(_)) | Err(PersistError::UnsupportedVersion(_))
        ));
        // Flip a version byte.
        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(from_bytes(&bad), Err(PersistError::UnsupportedVersion(_))));
        // Truncate mid-tree.
        assert!(from_bytes(&good[..good.len() - 5]).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(7);
        assert_eq!(from_bytes(&long), Err(PersistError::Corrupt("trailing bytes")));
    }

    #[test]
    fn nondefault_config_variants_roundtrip() {
        let (data, _) = planted_toy().generate_scaled(0.1, 82).unwrap();
        let cfg = DareConfig {
            n_trees: 2,
            max_depth: 4,
            random_depth: 2,
            n_thresholds: 3,
            max_features: crate::config::MaxFeatures::Count(2),
            min_samples_split: 6,
            min_samples_leaf: 2,
            seed: 123,
            n_jobs: Some(1),
        };
        let f = DareForest::fit(&data, cfg.clone());
        let g = from_bytes(&to_bytes(&f)).unwrap();
        assert_eq!(g.config(), &cfg);
        // And the All/Sqrt variants.
        for mf in [crate::config::MaxFeatures::All, crate::config::MaxFeatures::Sqrt] {
            let cfg2 = DareConfig { max_features: mf, n_jobs: None, ..cfg.clone() };
            let f2 = DareForest::fit(&data, cfg2.clone());
            let g2 = from_bytes(&to_bytes(&f2)).unwrap();
            assert_eq!(g2.config(), &cfg2);
        }
    }

    #[test]
    fn file_roundtrip() {
        let (f, data) = forest();
        let dir = std::env::temp_dir().join("fume_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dare");
        save(&f, &path).unwrap();
        let g = load(&path).unwrap();
        assert_eq!(f.predict_proba(&data), g.predict_proba(&data));
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_tmp() {
        let (f, data) = forest();
        let dir = std::env::temp_dir().join("fume_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.dare");
        // Seed the path with garbage: the rename must replace it whole.
        std::fs::write(&path, b"stale junk").unwrap();
        save_atomic(&f, &path).unwrap();
        let g = load(&path).unwrap();
        assert_eq!(f.predict_proba(&data), g.predict_proba(&data));
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists(), "tmp file must not linger");
    }

    #[test]
    fn config_codec_hooks_roundtrip() {
        let cfg = DareConfig {
            n_trees: 3,
            max_depth: 5,
            random_depth: 1,
            n_thresholds: 7,
            max_features: crate::config::MaxFeatures::Count(4),
            min_samples_split: 9,
            min_samples_leaf: 3,
            seed: 0xDEAD_BEEF,
            n_jobs: Some(2),
        };
        let mut bytes = Vec::new();
        encode_config_into(&mut bytes, &cfg);
        let mut cursor = bytes.as_slice();
        assert_eq!(decode_config_from(&mut cursor).unwrap(), cfg);
        assert!(cursor.is_empty(), "decode must consume exactly the config");
    }
}
