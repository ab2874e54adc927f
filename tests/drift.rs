//! Drift-corpus integration tests: seeded determinism end to end
//! (corpus bytes, snapshot bytes, metrics documents), seed independence,
//! and the cloned-vs-drifted cache contrast that pins
//! `replicate_schemas`' role as a throughput baseline — not a cache
//! ceiling — next to the verbatim-clone regime that *is* the ceiling.

use qi_core::NamingPolicy;
use qi_datasets::{
    all_domains, generate_drift_corpus, morph_probe, replicate_schemas, DriftConfig,
};
use qi_lexicon::Lexicon;
use qi_runtime::Telemetry;
use qi_serve::{build_artifact, Snapshot};
use std::collections::HashSet;
use std::process::Command;

fn small() -> DriftConfig {
    DriftConfig {
        domains: 3,
        interfaces: 8,
        concepts: 12,
        ..DriftConfig::default()
    }
}

/// Every label token of a corpus, for vocabulary comparisons.
fn vocabulary(corpus: &[qi_datasets::Domain]) -> HashSet<String> {
    let mut words = HashSet::new();
    for domain in corpus {
        for schema in &domain.schemas {
            for node in schema.nodes() {
                if let Some(label) = node.label.as_deref() {
                    for word in label.split_whitespace() {
                        words.insert(word.to_string());
                    }
                }
            }
        }
    }
    words
}

/// The same seed must reproduce the corpus byte for byte — through the
/// text rendering of every interface AND through the full pipeline +
/// snapshot encoding, so a committed drift snapshot is reproducible
/// from its `DriftConfig` alone.
#[test]
fn same_seed_is_byte_identical_through_snapshot() {
    let lexicon = Lexicon::builtin();
    let render = |corpus: &[qi_datasets::Domain]| -> String {
        corpus
            .iter()
            .flat_map(|d| &d.schemas)
            .map(qi_schema::text_format::render)
            .collect()
    };
    let first = generate_drift_corpus(&small(), &lexicon);
    let second = generate_drift_corpus(&small(), &lexicon);
    assert_eq!(render(&first), render(&second));

    let snapshot_bytes = |corpus: &[qi_datasets::Domain]| -> Vec<u8> {
        let policy = NamingPolicy::default();
        let telemetry = Telemetry::off();
        // Fresh caches per run: determinism must not depend on what an
        // earlier pipeline happened to memoize.
        lexicon.reset_caches();
        Snapshot {
            policy,
            domains: corpus
                .iter()
                .map(|d| build_artifact(d, &lexicon, policy, &telemetry))
                .collect(),
        }
        .to_bytes()
    };
    let bytes = snapshot_bytes(&first);
    let again = snapshot_bytes(&second);
    assert_eq!(bytes, again, "snapshot encodings diverged");
    // And the encoding round-trips.
    let decoded = Snapshot::from_bytes(&bytes).expect("decoding own encoding");
    assert_eq!(decoded.to_bytes(), bytes);
}

/// Different seeds must generate materially different corpora — the
/// whole point of the seed sweep in scaled runs is that domains do not
/// repeat one vocabulary.
#[test]
fn different_seeds_produce_distinct_vocabularies() {
    let lexicon = Lexicon::builtin();
    let a = vocabulary(&generate_drift_corpus(&small(), &lexicon));
    let b = vocabulary(&generate_drift_corpus(
        &DriftConfig {
            seed: small().seed ^ 0xDEAD_BEEF,
            ..small()
        },
        &lexicon,
    ));
    let only_a = a.difference(&b).count();
    let only_b = b.difference(&a).count();
    assert!(
        only_a > 10 && only_b > 10,
        "seed change barely moved the vocabulary: {only_a} / {only_b} exclusive words"
    );
}

/// `qi synth --drift --export` + `qi label --metrics
/// --deterministic-timers` twice, in separate processes: the exported
/// corpus and the resulting metrics documents must be byte-identical.
#[test]
fn cli_drift_export_and_metrics_are_deterministic() {
    let dir = std::env::temp_dir().join(format!("qi-drift-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let export = |name: &str| -> std::path::PathBuf {
        let out = dir.join(name);
        let status = Command::new(env!("CARGO_BIN_EXE_qi"))
            .args(["synth", "--drift", "--domains", "1", "--export"])
            .arg(&out)
            .output()
            .expect("run qi synth");
        assert!(status.status.success(), "{:?}", status);
        out.join("drift0")
    };
    let first = export("a");
    let second = export("b");
    let mut files: Vec<String> = std::fs::read_dir(&first)
        .expect("exported domain dir")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for name in &files {
        assert_eq!(
            std::fs::read(first.join(name)).unwrap(),
            std::fs::read(second.join(name)).unwrap(),
            "{name} differs between exports"
        );
    }

    let metrics = |exported: &std::path::Path, out: &str| -> Vec<u8> {
        let path = dir.join(out);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_qi"));
        cmd.args(["label", "--deterministic-timers", "--metrics"]);
        cmd.arg(&path);
        for name in &files {
            cmd.arg(exported.join(name));
        }
        let output = cmd.output().expect("run qi label");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        std::fs::read(&path).expect("metrics document")
    };
    let m1 = metrics(&first, "m1.json");
    let m2 = metrics(&second, "m2.json");
    assert!(!m1.is_empty());
    assert_eq!(m1, m2, "metrics documents diverged across processes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Morphology cache-hit rate of a corpus: `LabelText::new` on every
/// leaf label occurrence from reset caches (`morph_probe`), so the
/// morphology (`base_form`) cache is probed once per token occurrence.
fn morph_rate(schemas: &[qi_schema::SchemaTree], lexicon: &Lexicon) -> f64 {
    morph_probe(schemas, lexicon).hit_rate()
}

/// Pins the cache regimes the scaled benchmarks compare (and documents
/// the `replicate_schemas` decision): *verbatim* clones are the cache
/// ceiling — every surface repeats, per-occurrence lexicon lookups hit
/// on all but the first copy. *Renamed* replicas (`replicate_schemas`)
/// are deliberately NOT that ceiling: renaming every token makes the
/// vocabulary grow linearly with the replica count, which keeps the
/// matcher-throughput benchmark honest but would *understate* how
/// flattering naive cloning is to caches. The drift corpus must sit
/// materially below the verbatim ceiling.
#[test]
fn verbatim_clones_are_the_cache_ceiling_drift_sits_below() {
    let lexicon = Lexicon::builtin();
    let base = all_domains().remove(0).schemas;

    let mut verbatim = Vec::with_capacity(base.len() * 10);
    for _ in 0..10 {
        verbatim.extend_from_slice(&base);
    }
    let verbatim_rate = morph_rate(&verbatim, &lexicon);

    let renamed = replicate_schemas(&base, 10);
    let renamed_rate = morph_rate(&renamed, &lexicon);

    let drift = generate_drift_corpus(&small(), &lexicon);
    let drift_schemas: Vec<qi_schema::SchemaTree> = drift
        .iter()
        .flat_map(|d| d.schemas.iter().cloned())
        .collect();
    let drift_rate = morph_rate(&drift_schemas, &lexicon);

    assert!(
        verbatim_rate > 0.97,
        "verbatim clones should hit on nearly every lookup: {verbatim_rate:.4}"
    );
    assert!(
        verbatim_rate > drift_rate + 0.02,
        "drift corpus not materially below the cloned ceiling: \
         cloned {verbatim_rate:.4} vs drift {drift_rate:.4}"
    );
    assert!(
        verbatim_rate > renamed_rate + 0.02,
        "renamed replicas should miss far more than verbatim clones: \
         verbatim {verbatim_rate:.4} vs renamed {renamed_rate:.4}"
    );
}
