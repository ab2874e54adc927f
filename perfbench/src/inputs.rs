//! Seeded inputs: drift corpora and their digest.

use qi_datasets::{Domain, DriftConfig};
use qi_lexicon::Lexicon;
use qi_mapping::MatcherConfig;
use qi_runtime::SplitMix64;

/// A drift corpus of `domains` × `interfaces` under the generator's
/// default configuration, seeded from the benchmark seed and a
/// per-workload salt so the workloads never share a corpus.
pub fn drift_corpus(
    seed: u64,
    salt: u64,
    domains: usize,
    interfaces: usize,
    lexicon: &Lexicon,
) -> Vec<Domain> {
    let config = DriftConfig {
        seed: SplitMix64::new(seed ^ salt.rotate_left(32)).next_u64(),
        domains,
        interfaces,
        ..DriftConfig::default()
    };
    qi_datasets::generate_drift_corpus(&config, lexicon)
}

/// The matcher configuration the drift corpus is built for: the default
/// tiers plus the fuzzy tier, one thread per domain.
pub fn drift_matcher() -> MatcherConfig {
    MatcherConfig {
        fuzzy: true,
        threads: 1,
        ..MatcherConfig::default()
    }
}

/// FNV-1a over a byte stream fed in pieces.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feed bytes, followed by a separator so piece boundaries count.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Feed every interface (in its text form) and every ground-truth
/// cluster of `domains` into `digest`.
pub fn digest_corpus(digest: &mut Digest, domains: &[Domain]) {
    for domain in domains {
        digest.feed(domain.name.as_bytes());
        for schema in &domain.schemas {
            digest.feed(qi_schema::text_format::render(schema).as_bytes());
        }
        for cluster in &domain.mapping.clusters {
            digest.feed(format!("{}:{:?}", cluster.concept, cluster.members).as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(seed: u64) -> u64 {
        let lexicon = Lexicon::builtin();
        let corpus = drift_corpus(seed, 1, 2, 4, &lexicon);
        let mut digest = Digest::default();
        digest_corpus(&mut digest, &corpus);
        digest.value()
    }

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        assert_eq!(digest_of(1), digest_of(1));
        assert_ne!(digest_of(1), digest_of(7));
    }

    #[test]
    fn piece_boundaries_change_the_digest() {
        let mut ab = Digest::default();
        ab.feed(b"ab");
        let mut a_b = Digest::default();
        a_b.feed(b"a");
        a_b.feed(b"b");
        assert_ne!(ab.value(), a_b.value());
    }
}
