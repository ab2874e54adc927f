//! The evaluation corpus: seven Deep-Web domains modeled on the paper's
//! 150-interface dataset, plus a synthetic-domain generator.
//!
//! The original corpus (150 query interfaces scraped from the 2005 Web,
//! hosted on the authors' long-gone project page \[1\]) is not recoverable,
//! so this crate hand-authors a replacement with the same *shape*
//! (DESIGN.md §3): per-domain interface counts, average field / internal
//! node counts, tree depths and labeling quality (Table 6, columns 2–5),
//! and the label heterogeneity the algorithm is sensitive to — plural
//! families (`Adults`/`Adult`), word-order variants (`Job Type`/`Type of
//! Job`), synonym variants (`Make`/`Brand`), granularity mismatches
//! (`Passengers` → adults/seniors/children/infants), missing labels, and
//! the specific troublesome structures the paper reports (the airline's
//! unlabeled frequency-1 group, the Real Estate field that is unlabeled in
//! every source, the Hotels chain-specific discount fields).
//!
//! Every domain ships ground-truth clusters, so the pipeline is exercised
//! exactly as in the paper (which assumes matching is given, §2.1).
//!
//! ```
//! use qi_datasets::all_domains;
//!
//! let domains = all_domains();
//! assert_eq!(domains.len(), 7);
//! let total: usize = domains.iter().map(|d| d.schemas.len()).sum();
//! assert_eq!(total, 150);
//! ```

pub mod airline;
pub mod auto;
pub mod book;
pub mod car_rental;
pub mod domain;
pub mod drift;
pub mod hotels;
pub mod job;
pub mod real_estate;
pub mod spec;
pub mod synth;

pub use domain::{Domain, PreparedDomain};
pub use drift::{generate_drift_corpus, morph_probe, DriftConfig, DriftReport};
pub use spec::{f, fi, fm, fu, fui, g, gu, FieldSpec};
pub use synth::{generate_ladder, replicate_schemas, SynthConfig, SynthDomain};

/// All seven evaluation domains, in Table 6 order.
pub fn all_domains() -> Vec<Domain> {
    vec![
        airline::domain(),
        auto::domain(),
        book::domain(),
        job::domain(),
        real_estate::domain(),
        car_rental::domain(),
        hotels::domain(),
    ]
}

/// Look a domain up by (case-insensitive) name.
pub fn domain_by_name(name: &str) -> Option<Domain> {
    all_domains()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_150_interfaces() {
        let domains = all_domains();
        let counts: Vec<(String, usize)> = domains
            .iter()
            .map(|d| (d.name.clone(), d.schemas.len()))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("Airline".to_string(), 20),
                ("Auto".to_string(), 20),
                ("Book".to_string(), 20),
                ("Job".to_string(), 20),
                ("Real Estate".to_string(), 20),
                ("Car Rental".to_string(), 20),
                ("Hotels".to_string(), 30),
            ]
        );
    }

    #[test]
    fn lookup_by_name() {
        assert!(domain_by_name("airline").is_some());
        assert!(domain_by_name("REAL ESTATE").is_some());
        assert!(domain_by_name("groceries").is_none());
    }

    #[test]
    fn every_domain_prepares_cleanly() {
        for domain in all_domains() {
            let prepared = domain.prepare();
            prepared
                .mapping
                .validate(&prepared.schemas)
                .unwrap_or_else(|e| panic!("{}: {e}", prepared.name));
            assert!(
                prepared.integrated.tree.leaves().count() > 0,
                "{}: empty integrated tree",
                prepared.name
            );
        }
    }
}
