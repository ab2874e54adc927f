//! Shared query-execution surface for `GET/POST /query` and `qi query`.
//!
//! Both front doors parse the same compact syntax, execute over the
//! same sorted-artifact stream with one traversal budget, paginate with
//! the same opaque version-pinned cursors, and render the same JSON —
//! this module is that common core, so the CLI and the HTTP handler
//! cannot drift apart.

use crate::artifact::DomainArtifact;
use qi_lexicon::Lexicon;
use qi_query::{
    execute, parse, query_hash, ArtifactView, Budget, Cursor, ExecError, ParseError, QueryMatch,
};
use qi_runtime::json::{Arr, Obj};

/// Page size when the request names none.
pub const DEFAULT_LIMIT: u64 = 100;
/// Hard cap on the requested page size.
pub const MAX_LIMIT: u64 = 1000;
/// Default (and maximum) traversal-node budget per request.
pub const DEFAULT_BUDGET: u64 = 100_000;

/// Pagination and limit parameters of one query request.
#[derive(Debug, Clone)]
pub struct PageParams {
    /// Maximum matches returned in this page.
    pub limit: u64,
    /// Traversal-node budget shared across all scanned domains.
    pub budget: u64,
    /// Opaque cursor from a previous page, if resuming.
    pub cursor: Option<String>,
}

impl Default for PageParams {
    fn default() -> Self {
        PageParams {
            limit: DEFAULT_LIMIT,
            budget: DEFAULT_BUDGET,
            cursor: None,
        }
    }
}

/// Why a query request failed; each variant maps to one HTTP status.
#[derive(Debug)]
pub enum QueryError {
    /// Syntax or length error → 400.
    Parse(ParseError),
    /// Undecodable cursor, or one issued for a different query → 400.
    BadCursor(&'static str),
    /// A well-formed cursor whose domain was swapped or removed since
    /// the page was cut → 410 Gone (re-issue the query without it).
    StaleCursor,
    /// Traversal budget exhausted before the walk finished → 422.
    BudgetExhausted {
        /// The budget that ran out.
        limit: u64,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(err) => write!(f, "bad query: {err}"),
            QueryError::BadCursor(why) => write!(f, "bad cursor: {why}"),
            QueryError::StaleCursor => write!(
                f,
                "cursor is stale: the snapshot it was reading has been replaced"
            ),
            QueryError::BudgetExhausted { limit } => {
                write!(f, "traversal budget of {limit} nodes exhausted")
            }
        }
    }
}

/// One page of query results.
#[derive(Debug)]
pub struct QueryPage {
    /// Canonical rendering of the executed query.
    pub canonical: String,
    /// The matches of this page, in (slug, preorder) stream order.
    pub matches: Vec<QueryMatch>,
    /// Cursor resuming after the last match, when more exist.
    pub next_cursor: Option<String>,
    /// Tree nodes visited while producing this page.
    pub scanned: u64,
}

/// The query engine's borrowed view over one artifact. `domain` should
/// be the artifact's slug so match output, `in` scopes and cursors all
/// speak the same identifier the URLs do.
pub fn view_of<'a>(artifact: &'a DomainArtifact, domain: &'a str) -> ArtifactView<'a> {
    ArtifactView {
        domain,
        tree: &artifact.labeled,
        decisions: &artifact.decisions,
        symbols: &artifact.symbols,
        normalized: &artifact.normalized,
    }
}

/// Parse and execute `text` over `artifacts` (which must be sorted by
/// slug — the store's `BTreeMap` order), producing one page.
pub fn run_query(
    artifacts: &[&DomainArtifact],
    lexicon: &Lexicon,
    text: &str,
    params: &PageParams,
) -> Result<QueryPage, QueryError> {
    let query = parse(text).map_err(QueryError::Parse)?;
    let canonical = query.to_string();
    let qhash = query_hash(&canonical);
    let cursor = match &params.cursor {
        Some(text) => Some(decode_cursor(
            text,
            qhash,
            "cursor was issued for a different query",
        )?),
        None => None,
    };

    let mut budget = Budget::new(params.budget);
    let mut matches: Vec<QueryMatch> = Vec::new();
    let mut next_cursor = None;
    // The cursor names the domain the previous page stopped in; it must
    // still be served at the exact version the stream was reading.
    let mut cursor_domain_seen = cursor.is_none();
    let slugs: Vec<String> = artifacts.iter().map(|a| a.slug()).collect();
    'stream: for (artifact, slug) in artifacts.iter().zip(&slugs) {
        let skip = match &cursor {
            Some(c) if slug.as_str() < c.slug.as_str() => continue,
            Some(c) if *slug == c.slug => {
                if artifact.version != c.version {
                    return Err(QueryError::StaleCursor);
                }
                cursor_domain_seen = true;
                c.offset as usize
            }
            _ => 0,
        };
        let domain_matches = execute(&query, view_of(artifact, slug), lexicon, &mut budget)
            .map_err(
                |ExecError::BudgetExhausted { limit }| QueryError::BudgetExhausted { limit },
            )?;
        for (index, matched) in domain_matches.into_iter().enumerate() {
            if index < skip {
                continue;
            }
            if matches.len() as u64 == params.limit {
                next_cursor = Some(
                    Cursor {
                        qhash,
                        slug: slug.clone(),
                        version: artifact.version,
                        offset: index as u64,
                    }
                    .encode(),
                );
                break 'stream;
            }
            matches.push(matched);
        }
    }
    if !cursor_domain_seen {
        return Err(QueryError::StaleCursor);
    }
    Ok(QueryPage {
        canonical,
        matches,
        next_cursor,
        scanned: budget.spent(),
    })
}

/// Decode a cursor of the stream tagged `qhash`; `different` says why
/// a cursor of another stream is refused.
pub fn decode_cursor(
    text: &str,
    qhash: u64,
    different: &'static str,
) -> Result<Cursor, QueryError> {
    let cursor =
        Cursor::decode(text).map_err(|_| QueryError::BadCursor("cursor is not decodable"))?;
    if cursor.qhash != qhash {
        return Err(QueryError::BadCursor(different));
    }
    Ok(cursor)
}

/// Render one page as the wire JSON shared by `/query` and `qi query`.
pub fn page_json(page: &QueryPage) -> String {
    let mut arr = Arr::new();
    for matched in &page.matches {
        arr.raw(match_json(matched));
    }
    let mut obj = Obj::new();
    obj.str("query", &page.canonical);
    obj.u64("count", page.matches.len() as u64);
    obj.u64("scanned", page.scanned);
    obj.raw("matches", arr.finish());
    if let Some(cursor) = &page.next_cursor {
        obj.str("next_cursor", cursor);
    }
    obj.finish()
}

fn match_json(matched: &QueryMatch) -> String {
    let mut obj = Obj::new();
    obj.str("domain", &matched.domain);
    obj.u64("node", matched.node as u64);
    obj.str("path", &matched.path);
    match &matched.label {
        Some(label) => obj.str("label", label),
        None => obj.raw("label", "null"),
    };
    obj.str("kind", matched.kind);
    match &matched.rule {
        Some(rule) => obj.str("rule", rule),
        None => obj.raw("rule", "null"),
    };
    if let Some(trail) = &matched.trail {
        let mut ids = Arr::new();
        for &id in trail {
            ids.raw(id.to_string());
        }
        obj.raw("trail", ids.finish());
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::build_corpus_artifacts;
    use qi_core::NamingPolicy;
    use qi_runtime::Telemetry;

    fn corpus() -> (Vec<DomainArtifact>, Lexicon) {
        let lexicon = Lexicon::builtin();
        let artifacts =
            build_corpus_artifacts(&lexicon, NamingPolicy::default(), &Telemetry::off());
        (artifacts, lexicon)
    }

    fn sorted(artifacts: &[DomainArtifact]) -> Vec<&DomainArtifact> {
        let mut refs: Vec<&DomainArtifact> = artifacts.iter().collect();
        refs.sort_by_key(|a| a.slug());
        refs
    }

    #[test]
    fn pagination_concatenates_to_the_full_stream() {
        let (artifacts, lexicon) = corpus();
        let refs = sorted(&artifacts);
        let all = PageParams {
            limit: u64::MAX,
            ..PageParams::default()
        };
        let full = run_query(&refs, &lexicon, "find fields", &all).unwrap();
        assert!(full.next_cursor.is_none());
        assert!(full.matches.len() > 20, "corpus has many fields");

        let mut paged: Vec<QueryMatch> = Vec::new();
        let mut cursor: Option<String> = None;
        let mut pages = 0;
        loop {
            let params = PageParams {
                limit: 7,
                cursor: cursor.take(),
                ..PageParams::default()
            };
            let page = run_query(&refs, &lexicon, "find fields", &params).unwrap();
            assert!(page.matches.len() <= 7);
            paged.extend(page.matches);
            pages += 1;
            match page.next_cursor {
                Some(next) => cursor = Some(next),
                None => break,
            }
        }
        assert!(pages > 2);
        assert_eq!(paged, full.matches, "paged stream equals the full stream");
    }

    #[test]
    fn cursor_for_a_different_query_is_rejected() {
        let (artifacts, lexicon) = corpus();
        let refs = sorted(&artifacts);
        let params = PageParams {
            limit: 3,
            ..PageParams::default()
        };
        let page = run_query(&refs, &lexicon, "find fields", &params).unwrap();
        let cursor = page.next_cursor.expect("more than 3 fields");
        let params = PageParams {
            cursor: Some(cursor),
            ..PageParams::default()
        };
        assert!(matches!(
            run_query(&refs, &lexicon, "find groups", &params),
            Err(QueryError::BadCursor(_))
        ));
        let params = PageParams {
            cursor: Some("zz".into()),
            ..PageParams::default()
        };
        assert!(matches!(
            run_query(&refs, &lexicon, "find fields", &params),
            Err(QueryError::BadCursor(_))
        ));
    }

    #[test]
    fn version_swap_invalidates_cursors() {
        let (mut artifacts, lexicon) = corpus();
        let params = PageParams {
            limit: 3,
            ..PageParams::default()
        };
        let cursor = {
            let refs = sorted(&artifacts);
            run_query(&refs, &lexicon, "find fields", &params)
                .unwrap()
                .next_cursor
                .expect("more than 3 fields")
        };
        // A snapshot swap bumps every artifact version.
        for artifact in &mut artifacts {
            artifact.version += 1;
        }
        let refs = sorted(&artifacts);
        let params = PageParams {
            cursor: Some(cursor),
            ..PageParams::default()
        };
        assert!(matches!(
            run_query(&refs, &lexicon, "find fields", &params),
            Err(QueryError::StaleCursor)
        ));
    }

    #[test]
    fn budget_exhaustion_maps_to_a_typed_error() {
        let (artifacts, lexicon) = corpus();
        let refs = sorted(&artifacts);
        let params = PageParams {
            budget: 1,
            ..PageParams::default()
        };
        assert!(matches!(
            run_query(&refs, &lexicon, "find fields", &params),
            Err(QueryError::BudgetExhausted { limit: 1 })
        ));
    }

    #[test]
    fn page_json_shape() {
        let (artifacts, lexicon) = corpus();
        let refs = sorted(&artifacts);
        let params = PageParams {
            limit: 2,
            ..PageParams::default()
        };
        let page = run_query(&refs, &lexicon, "path to fields", &params).unwrap();
        let json = page_json(&page);
        assert!(json.contains("\"query\":\"path to fields\""));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"trail\":["));
        assert!(json.contains("\"next_cursor\":\""));
    }
}
