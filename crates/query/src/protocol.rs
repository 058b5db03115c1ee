//! The command-line query protocol (paper §4.1.4).
//!
//! A line-oriented text protocol "designed to process client queries with
//! various parameters including the number of results to return, filter
//! parameters, and attributes". One command per line:
//!
//! ```text
//! query id=42 k=10 mode=filter r=2 cand=40 attr="collection:corel"
//! attr collection:corel AND caption:dog
//! delete id=42
//! stat
//! help
//! quit
//! ```

use ferret_core::engine::{FusionMode, QueryMode};
use ferret_core::filter::FilterParams;
use ferret_core::object::ObjectId;

use crate::fusion::FusedHit;

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Similarity query seeded by a stored object.
    Query {
        /// Seed object id.
        id: ObjectId,
        /// Number of results.
        k: usize,
        /// Traversal mode.
        mode: QueryMode,
        /// Filtering parameters.
        filter: FilterParams,
        /// Optional attribute pre-filter expression.
        attr: Option<String>,
        /// Optional adjusted query segment weights (paper §4.1.4).
        weights: Option<Vec<f32>>,
        /// How (whether) to fuse the attribute rank with the
        /// similarity rank. Requires `attr` when not `None`.
        fusion: FusionMode,
        /// Drop results whose similarity `1/(1+distance)` falls below
        /// this threshold.
        min_similarity: Option<f64>,
        /// Cap on the number of returned results (after fusion).
        limit: Option<usize>,
        /// Render the reply as single-line JSON instead of the text
        /// protocol's `OK`-prefixed form.
        json: bool,
    },
    /// Attribute-only search.
    Attr {
        /// The attribute query expression.
        expression: String,
    },
    /// Remove an object.
    Delete {
        /// The object to remove.
        id: ObjectId,
    },
    /// Engine statistics.
    Stat,
    /// Usage help.
    Help,
    /// Close the session.
    Quit,
}

impl Command {
    /// True for commands that only read service state.
    ///
    /// This classification is the serving concurrency contract: read
    /// commands execute through `FerretService::execute_read(&self)` under
    /// a shared (`RwLock::read`) lock, so any number of connections can
    /// run them at once; write commands take the exclusive lock.
    pub fn is_read(&self) -> bool {
        match self {
            Command::Query { .. } | Command::Attr { .. } => true,
            Command::Stat | Command::Help | Command::Quit => true,
            Command::Delete { .. } => false,
        }
    }
}

/// A structured command response, renderable as protocol text (see
/// [`render_response`]) or JSON (`http::response_to_json`).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ranked similarity results: `(id, distance)`.
    Results(Vec<(ObjectId, f64)>),
    /// Fusion-ranked hybrid results (fused score, optional distance).
    Fused(Vec<FusedHit>),
    /// Attribute search hits.
    Ids(Vec<ObjectId>),
    /// Statistics summary.
    Stat {
        /// Stored objects.
        objects: usize,
        /// Stored segments.
        segments: usize,
        /// Sketch metadata bytes.
        sketch_bytes: usize,
        /// Feature-vector metadata bytes.
        feature_bytes: usize,
    },
    /// Help text.
    Help,
    /// Session close acknowledgment.
    Bye,
    /// Generic acknowledgment.
    Ok,
}

/// Renders a [`Response`] in the line protocol's text form: one
/// `OK`/`ERR` status line plus payload lines.
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Results(results) => {
            let mut out = format!("OK {}\n", results.len());
            for (id, d) in results {
                out.push_str(&format!("{} {:.6}\n", id.0, d));
            }
            out
        }
        Response::Fused(hits) => {
            let mut out = format!("OK {}\n", hits.len());
            for h in hits {
                match h.distance {
                    Some(d) => out.push_str(&format!("{} {:.6} {:.6}\n", h.id.0, h.score, d)),
                    // Attribute-only hits have no similarity distance.
                    None => out.push_str(&format!("{} {:.6} -\n", h.id.0, h.score)),
                }
            }
            out
        }
        Response::Ids(ids) => {
            let mut out = format!("OK {}\n", ids.len());
            for id in ids {
                out.push_str(&format!("{}\n", id.0));
            }
            out
        }
        Response::Stat {
            objects,
            segments,
            sketch_bytes,
            feature_bytes,
        } => {
            format!(
                "OK 4\nobjects {objects}\nsegments {segments}\nsketch_bytes {sketch_bytes}\nfeature_bytes {feature_bytes}\n"
            )
        }
        Response::Help => format!("OK help\n{HELP_TEXT}\n"),
        Response::Bye => "OK bye\n".to_string(),
        Response::Ok => "OK\n".to_string(),
    }
}

/// Renders an error in the line protocol's text form (`ERR <message>`).
pub fn render_error(message: &dyn std::fmt::Display) -> String {
    format!("ERR {message}\n")
}

/// The protocol line an overloaded server answers with when admission
/// control rejects a query (clients should back off and retry).
pub const BUSY_LINE: &str = "ERR BUSY too many in-flight queries, retry later\n";

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a service [`Response`] as JSON.
pub fn response_to_json(resp: &Response) -> String {
    match resp {
        Response::Results(results) => {
            let items: Vec<String> = results
                .iter()
                .map(|(id, d)| format!("{{\"id\":{},\"distance\":{:.6}}}", id.0, d))
                .collect();
            format!("{{\"ok\":true,\"results\":[{}]}}", items.join(","))
        }
        Response::Fused(hits) => {
            let items: Vec<String> = hits
                .iter()
                .map(|h| match h.distance {
                    Some(d) => format!(
                        "{{\"id\":{},\"score\":{:.6},\"distance\":{:.6}}}",
                        h.id.0, h.score, d
                    ),
                    None => format!(
                        "{{\"id\":{},\"score\":{:.6},\"distance\":null}}",
                        h.id.0, h.score
                    ),
                })
                .collect();
            format!("{{\"ok\":true,\"results\":[{}]}}", items.join(","))
        }
        Response::Ids(ids) => {
            let items: Vec<String> = ids.iter().map(|id| id.0.to_string()).collect();
            format!("{{\"ok\":true,\"ids\":[{}]}}", items.join(","))
        }
        Response::Stat {
            objects,
            segments,
            sketch_bytes,
            feature_bytes,
        } => format!(
            "{{\"ok\":true,\"objects\":{objects},\"segments\":{segments},\"sketch_bytes\":{sketch_bytes},\"feature_bytes\":{feature_bytes}}}"
        ),
        Response::Help => format!("{{\"ok\":true,\"help\":\"{}\"}}", json_escape(HELP_TEXT)),
        Response::Bye | Response::Ok => "{\"ok\":true}".to_string(),
    }
}

/// Renders a reply in the form the command asked for: single-line JSON
/// when the command was a `format=json` query, otherwise the text
/// protocol. Errors always render as `ERR` text lines regardless of the
/// requested format, so a client can detect failure without parsing.
pub fn render_reply(cmd: &Command, resp: &Response) -> String {
    if matches!(cmd, Command::Query { json: true, .. }) {
        let mut out = response_to_json(resp);
        out.push('\n');
        return out;
    }
    render_response(resp)
}

impl Response {
    /// Renders the protocol text form ([`render_response`]).
    pub fn render(&self) -> String {
        render_response(self)
    }
}

/// A protocol parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtocolError {}

/// Splits a command line into whitespace-separated tokens, honoring
/// double-quoted values in `key="..."` arguments.
fn tokenize(line: &str) -> Result<Vec<String>, ProtocolError> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut quoted = false;
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            c if c.is_whitespace() && !quoted => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if quoted {
        return Err(ProtocolError("unterminated quote".into()));
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    Ok(tokens)
}

fn parse_kv(token: &str) -> Result<(&str, &str), ProtocolError> {
    token
        .split_once('=')
        .ok_or_else(|| ProtocolError(format!("expected key=value, got {token:?}")))
}

/// Parses one protocol line.
pub fn parse_command(line: &str) -> Result<Command, ProtocolError> {
    let tokens = tokenize(line)?;
    let Some(verb) = tokens.first() else {
        return Err(ProtocolError("empty command".into()));
    };
    match verb.as_str() {
        "query" => {
            let mut id: Option<u64> = None;
            let mut k = 10usize;
            let mut mode = QueryMode::Filtering;
            let mut filter = FilterParams::default();
            let mut attr = None;
            let mut weights = None;
            let mut fusion_name: Option<String> = None;
            let mut rrfk: Option<u32> = None;
            let mut fw: Option<f64> = None;
            let mut min_similarity: Option<f64> = None;
            let mut limit: Option<usize> = None;
            let mut json = false;
            for token in &tokens[1..] {
                let (key, value) = parse_kv(token)?;
                match key {
                    "id" => {
                        id = Some(
                            value
                                .parse()
                                .map_err(|_| ProtocolError(format!("invalid id {value:?}")))?,
                        );
                    }
                    "k" => {
                        k = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid k {value:?}")))?;
                    }
                    "mode" => {
                        mode = match value {
                            "brute" | "brute-force-original" => QueryMode::BruteForceOriginal,
                            "sketch" | "brute-force-sketch" => QueryMode::BruteForceSketch,
                            "filter" | "filtering" => QueryMode::Filtering,
                            other => {
                                return Err(ProtocolError(format!("unknown mode {other:?}")));
                            }
                        };
                    }
                    "r" => {
                        filter.query_segments = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid r {value:?}")))?;
                    }
                    "cand" => {
                        filter.candidates_per_segment = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid cand {value:?}")))?;
                    }
                    "threshold" => {
                        filter.base_threshold =
                            Some(value.parse().map_err(|_| {
                                ProtocolError(format!("invalid threshold {value:?}"))
                            })?);
                    }
                    "attr" => attr = Some(value.to_string()),
                    "fusion" => {
                        match value {
                            "none" | "rrf" | "weighted" => {}
                            other => {
                                return Err(ProtocolError(format!("unknown fusion {other:?}")));
                            }
                        }
                        fusion_name = Some(value.to_string());
                    }
                    "rrfk" => {
                        let parsed: u32 = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid rrfk {value:?}")))?;
                        if parsed == 0 {
                            return Err(ProtocolError("rrfk must be >= 1".into()));
                        }
                        rrfk = Some(parsed);
                    }
                    "fw" => {
                        let parsed: f64 = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid fw {value:?}")))?;
                        if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
                            return Err(ProtocolError(format!("fw {value:?} outside [0, 1]")));
                        }
                        fw = Some(parsed);
                    }
                    "minsim" => {
                        let parsed: f64 = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid minsim {value:?}")))?;
                        if !parsed.is_finite() || !(0.0..=1.0).contains(&parsed) {
                            return Err(ProtocolError(format!("minsim {value:?} outside [0, 1]")));
                        }
                        min_similarity = Some(parsed);
                    }
                    "limit" => {
                        let parsed: usize = value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid limit {value:?}")))?;
                        if parsed == 0 {
                            return Err(ProtocolError("limit must be >= 1".into()));
                        }
                        limit = Some(parsed);
                    }
                    "format" => {
                        json = match value {
                            "text" => false,
                            "json" => true,
                            other => {
                                return Err(ProtocolError(format!("unknown format {other:?}")));
                            }
                        };
                    }
                    "weights" => {
                        let parsed: Result<Vec<f32>, _> =
                            value.split(',').map(str::parse::<f32>).collect();
                        weights =
                            Some(parsed.map_err(|_| {
                                ProtocolError(format!("invalid weights {value:?}"))
                            })?);
                    }
                    other => {
                        return Err(ProtocolError(format!("unknown parameter {other:?}")));
                    }
                }
            }
            let id = id.ok_or_else(|| ProtocolError("query requires id=<n>".into()))?;
            // Cross-parameter validation: fusion needs an attribute
            // ranking to blend with, and each tuning knob belongs to
            // exactly one fusion rule.
            let fusion = match fusion_name.as_deref() {
                None | Some("none") => {
                    if rrfk.is_some() {
                        return Err(ProtocolError("rrfk requires fusion=rrf".into()));
                    }
                    if fw.is_some() {
                        return Err(ProtocolError("fw requires fusion=weighted".into()));
                    }
                    FusionMode::None
                }
                Some("rrf") => {
                    if fw.is_some() {
                        return Err(ProtocolError("fw requires fusion=weighted".into()));
                    }
                    FusionMode::Rrf {
                        k: rrfk.unwrap_or(60),
                    }
                }
                Some("weighted") => {
                    if rrfk.is_some() {
                        return Err(ProtocolError("rrfk requires fusion=rrf".into()));
                    }
                    FusionMode::Weighted {
                        attr_weight: fw.unwrap_or(0.5),
                    }
                }
                Some(_) => unreachable!("fusion names validated at parse"),
            };
            if fusion != FusionMode::None && attr.is_none() {
                return Err(ProtocolError(
                    "fusion requires attr=\"<expr>\" to rank against".into(),
                ));
            }
            Ok(Command::Query {
                id: ObjectId(id),
                k,
                mode,
                filter,
                attr,
                weights,
                fusion,
                min_similarity,
                limit,
                json,
            })
        }
        "attr" => {
            if tokens.len() < 2 {
                return Err(ProtocolError("attr requires an expression".into()));
            }
            Ok(Command::Attr {
                expression: tokens[1..].join(" "),
            })
        }
        "delete" => {
            let mut id = None;
            for token in &tokens[1..] {
                let (key, value) = parse_kv(token)?;
                if key == "id" {
                    id = Some(
                        value
                            .parse()
                            .map_err(|_| ProtocolError(format!("invalid id {value:?}")))?,
                    );
                }
            }
            let id = id.ok_or_else(|| ProtocolError("delete requires id=<n>".into()))?;
            Ok(Command::Delete { id: ObjectId(id) })
        }
        "stat" => Ok(Command::Stat),
        "help" => Ok(Command::Help),
        "quit" | "exit" => Ok(Command::Quit),
        other => Err(ProtocolError(format!("unknown command {other:?}"))),
    }
}

/// The help text returned for `help`.
pub const HELP_TEXT: &str = "\
commands:
  query id=<n> [k=<n>] [mode=brute|sketch|filter] [r=<n>] [cand=<n>] [threshold=<bits>] [attr=\"<expr>\"] [weights=<w1,w2,...>]
        [fusion=none|rrf|weighted] [rrfk=<n>] [fw=<0..1>] [minsim=<0..1>] [limit=<n>] [format=text|json]
  attr <expression>
  delete id=<n>
  stat
  help
  quit";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_query() {
        let cmd = parse_command("query id=42").unwrap();
        match cmd {
            Command::Query {
                id, k, mode, attr, ..
            } => {
                assert_eq!(id, ObjectId(42));
                assert_eq!(k, 10);
                assert_eq!(mode, QueryMode::Filtering);
                assert!(attr.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_full_query() {
        let cmd = parse_command(
            "query id=7 k=25 mode=sketch r=3 cand=80 threshold=12 attr=\"collection:corel AND dog\"",
        )
        .unwrap();
        match cmd {
            Command::Query {
                id,
                k,
                mode,
                filter,
                attr,
                ..
            } => {
                assert_eq!(id, ObjectId(7));
                assert_eq!(k, 25);
                assert_eq!(mode, QueryMode::BruteForceSketch);
                assert_eq!(filter.query_segments, 3);
                assert_eq!(filter.candidates_per_segment, 80);
                assert_eq!(filter.base_threshold, Some(12));
                assert_eq!(attr.as_deref(), Some("collection:corel AND dog"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_mode_aliases() {
        for (alias, mode) in [
            ("brute", QueryMode::BruteForceOriginal),
            ("brute-force-original", QueryMode::BruteForceOriginal),
            ("sketch", QueryMode::BruteForceSketch),
            ("filtering", QueryMode::Filtering),
        ] {
            match parse_command(&format!("query id=1 mode={alias}")).unwrap() {
                Command::Query { mode: m, .. } => assert_eq!(m, mode, "{alias}"),
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn parse_other_commands() {
        assert_eq!(
            parse_command("attr collection:corel AND dog").unwrap(),
            Command::Attr {
                expression: "collection:corel AND dog".into()
            }
        );
        assert_eq!(
            parse_command("delete id=9").unwrap(),
            Command::Delete { id: ObjectId(9) }
        );
        assert_eq!(parse_command("stat").unwrap(), Command::Stat);
        assert_eq!(parse_command("help").unwrap(), Command::Help);
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
        assert_eq!(parse_command("exit").unwrap(), Command::Quit);
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "",
            "   ",
            "frobnicate",
            "query",
            "query id=abc",
            "query id=1 k=x",
            "query id=1 mode=warp",
            "query id=1 bogus=3",
            "query id=1 attr=\"unterminated",
            "delete",
            "delete id=zz",
            "attr",
            "query id",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn parse_weights() {
        match parse_command("query id=1 weights=0.5,0.25,0.25").unwrap() {
            Command::Query { weights, .. } => {
                assert_eq!(weights, Some(vec![0.5, 0.25, 0.25]));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_command("query id=1 weights=a,b").is_err());
        assert!(parse_command("query id=1 weights=").is_err());
    }

    #[test]
    fn quoted_values_keep_spaces() {
        let toks = tokenize("a=\"x y z\" b=2").unwrap();
        assert_eq!(toks, vec!["a=x y z", "b=2"]);
    }

    #[test]
    fn parse_fusion_query() {
        match parse_command("query id=1 attr=\"collection:corel\" fusion=rrf rrfk=30").unwrap() {
            Command::Query { fusion, .. } => assert_eq!(fusion, FusionMode::Rrf { k: 30 }),
            other => panic!("wrong command {other:?}"),
        }
        // Defaults: rrfk=60, fw=0.5.
        match parse_command("query id=1 attr=\"dog\" fusion=rrf").unwrap() {
            Command::Query { fusion, .. } => assert_eq!(fusion, FusionMode::Rrf { k: 60 }),
            other => panic!("wrong command {other:?}"),
        }
        match parse_command("query id=1 attr=\"dog\" fusion=weighted fw=0.75").unwrap() {
            Command::Query { fusion, .. } => {
                assert_eq!(fusion, FusionMode::Weighted { attr_weight: 0.75 });
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_command("query id=1 attr=\"dog\" fusion=weighted").unwrap() {
            Command::Query { fusion, .. } => {
                assert_eq!(fusion, FusionMode::Weighted { attr_weight: 0.5 });
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_shape_and_format() {
        match parse_command("query id=1 minsim=0.25 limit=5 format=json").unwrap() {
            Command::Query {
                min_similarity,
                limit,
                json,
                ..
            } => {
                assert_eq!(min_similarity, Some(0.25));
                assert_eq!(limit, Some(5));
                assert!(json);
            }
            other => panic!("wrong command {other:?}"),
        }
        // format=text is the explicit default.
        match parse_command("query id=1 format=text").unwrap() {
            Command::Query { json, .. } => assert!(!json),
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn fusion_parameter_combinations_are_validated() {
        for bad in [
            // Fusion without an attribute ranking to blend with.
            "query id=1 fusion=rrf",
            "query id=1 fusion=weighted",
            // Knobs tied to the wrong (or no) fusion rule.
            "query id=1 attr=\"dog\" rrfk=10",
            "query id=1 attr=\"dog\" fw=0.5",
            "query id=1 attr=\"dog\" fusion=rrf fw=0.5",
            "query id=1 attr=\"dog\" fusion=weighted rrfk=10",
            "query id=1 attr=\"dog\" fusion=none rrfk=10",
            // Out-of-range values.
            "query id=1 attr=\"dog\" fusion=rrf rrfk=0",
            "query id=1 attr=\"dog\" fusion=weighted fw=1.5",
            "query id=1 attr=\"dog\" fusion=weighted fw=nan",
            "query id=1 minsim=1.5",
            "query id=1 minsim=-0.1",
            "query id=1 minsim=abc",
            "query id=1 limit=0",
            "query id=1 limit=x",
            "query id=1 fusion=bogus",
            "query id=1 format=xml",
        ] {
            assert!(parse_command(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn render_fused_text_and_json() {
        let resp = Response::Fused(vec![
            FusedHit {
                id: ObjectId(3),
                score: 0.5,
                distance: Some(0.125),
            },
            FusedHit {
                id: ObjectId(9),
                score: 0.25,
                distance: None,
            },
        ]);
        assert_eq!(
            render_response(&resp),
            "OK 2\n3 0.500000 0.125000\n9 0.250000 -\n"
        );
        assert_eq!(
            response_to_json(&resp),
            "{\"ok\":true,\"results\":[{\"id\":3,\"score\":0.500000,\"distance\":0.125000},{\"id\":9,\"score\":0.250000,\"distance\":null}]}"
        );
    }

    #[test]
    fn render_reply_honors_requested_format() {
        let resp = Response::Results(vec![(ObjectId(1), 0.5)]);
        let text_cmd = parse_command("query id=1").unwrap();
        let json_cmd = parse_command("query id=1 format=json").unwrap();
        assert_eq!(render_reply(&text_cmd, &resp), render_response(&resp));
        assert_eq!(
            render_reply(&json_cmd, &resp),
            "{\"ok\":true,\"results\":[{\"id\":1,\"distance\":0.500000}]}\n"
        );
        // Non-query commands always use the text protocol.
        assert_eq!(
            render_reply(&Command::Stat, &Response::Ok),
            render_response(&Response::Ok)
        );
    }

    #[test]
    fn help_text_lists_commands() {
        for verb in ["query", "attr", "delete", "stat", "help", "quit"] {
            assert!(HELP_TEXT.contains(verb), "{verb} missing from help");
        }
    }
}
