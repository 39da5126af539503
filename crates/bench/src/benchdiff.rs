//! Benchmark-regression gating over `table1 --bench-json` records.
//!
//! CI runs the Table I driver on every PR and diffs the fresh record
//! against the committed `BENCH_table1.json` baseline. Semantic fields —
//! the verdict, the completing stage, and the manual-inspection count of
//! both the fastpath and the exhaustive baseline, per design — **gate**:
//! any drift fails the job, because those numbers are the paper's
//! Table I and must only change deliberately (with a baseline update in
//! the same PR). The deterministic work counters gate the same way when
//! both records carry them: product size, solver conflicts and
//! propagations, and IC3 propagations. Wall-clock numbers are
//! machine-dependent, so they are **report-only**: slowdowns beyond a
//! generous tolerance are called out in the summary but never fail the
//! job.
//!
//! The workspace vendors no serde, so the record is parsed with the
//! minimal JSON reader below (sufficient for the machine-generated
//! `--bench-json` shape, strict enough to reject malformed files).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Report-only wall-clock tolerance: flag a design when it got slower
/// than `base * RATIO + SLACK_S` seconds.
const WALL_RATIO: f64 = 3.0;
const WALL_SLACK_S: f64 = 0.5;

/// A minimal JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order is irrelevant for the bench records).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte offset plus description for malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string (byte {pos})")),
                };
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(out));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                        out.push(match esc {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            other => {
                                return Err(format!("unsupported escape `\\{}`", *other as char))
                            }
                        });
                        *pos += 1;
                    }
                    Some(&b) => {
                        // The bench records are ASCII; pass UTF-8
                        // continuation bytes through unchanged.
                        let start = *pos;
                        let ch_len = utf8_len(b);
                        *pos += ch_len;
                        let chunk = bytes.get(start..start + ch_len).ok_or("truncated UTF-8")?;
                        out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
            text.parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
        None => Err("unexpected end of input".to_string()),
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// The gated slice of one flow record.
#[derive(Clone, Debug, PartialEq)]
pub struct SideRecord {
    /// Table I verdict column ("True"/"Constrained"/"False").
    pub verdict: String,
    /// Completing stage ("HFG"/"IFT"/"UPEC").
    pub method: String,
    /// Manual-inspection count.
    pub inspections: u64,
    /// Wall-clock seconds (report-only).
    pub wall_s: f64,
    /// Hinted backward certification seconds (report-only; zero for
    /// records predating the split).
    pub cert_backward_s: f64,
    /// SAT-solver counters (`None` for records predating them). Conflicts
    /// and propagations are **gated** when both sides carry them; the
    /// technique counters are report-only.
    pub solver: Option<SolverCounters>,
    /// Proof-cache counters (report-only; `None` for cache-less runs and
    /// records predating the cache).
    pub cache: Option<CacheCounters>,
    /// SecIC3 engine counters (`None` for `--upec-engine induction`
    /// runs, runs that never escalated, and records predating the
    /// engine). Propagations are **gated** when both sides carry them;
    /// the rest is report-only. A warm (invariant-cache-served) run
    /// legitimately drops the section, which only warns.
    pub ic3: Option<Ic3Counters>,
    /// Product-construction size counters (`None` for records predating
    /// them). **Gated** when both sides carry them: the counts are
    /// deterministic and machine-independent, so any drift is a real
    /// encoding change that must come with a baseline update.
    pub product: Option<ProductCounters>,
}

/// Report-only proof-cache counters from the `cache` object of a bench
/// record (present only for `--proof-cache` runs). Absent fields parse as
/// zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub bytes: u64,
    pub evictions: u64,
}

/// SecIC3 counters from the `ic3` object of a bench record (present only
/// when at least one cold IC3 discharge attempt ran); `propagations`
/// gates, the rest is report-only. Absent fields parse as zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct Ic3Counters {
    pub frames: u64,
    pub ctis: u64,
    pub lemmas: u64,
    pub generalization_drops: u64,
    pub pushes: u64,
    pub attempts: u64,
    pub propagations: u64,
}

/// Product-construction size counters from the `product` object of a
/// bench record: how large the 2-safety induction queries were, summed
/// across every UPEC check of the run. Absent fields parse as zero.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct ProductCounters {
    pub checks: u64,
    pub check_aig_nodes: u64,
    pub check_sat_vars: u64,
    pub check_sat_clauses: u64,
    pub one_time_sat_vars: u64,
    pub one_time_sat_clauses: u64,
    pub predicates: u64,
    pub guard_assumptions: u64,
    pub word_fallbacks: u64,
}

/// SAT-solver counters from the `solver` object of a bench record:
/// `conflicts` and `propagations` gate, the technique counters are
/// report-only. Absent fields parse as zero so records from before a
/// counter was introduced still load.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[allow(missing_docs)]
pub struct SolverCounters {
    pub conflicts: u64,
    pub propagations: u64,
    pub chrono_backtracks: u64,
    pub vivified: u64,
    pub strengthened: u64,
    pub subsumed: u64,
    pub reuse_probed: u64,
    pub reuse_imported: u64,
    pub proof_bytes: u64,
}

/// Both sides of one design row.
#[derive(Clone, Debug)]
pub struct DesignRecord {
    /// Row label.
    pub design: String,
    /// FastPath hybrid flow.
    pub fastpath: SideRecord,
    /// Formal-only baseline.
    pub baseline: SideRecord,
}

/// Parses a `table1 --bench-json` record into design rows.
///
/// # Errors
///
/// Returns a description for malformed JSON or a missing field.
pub fn parse_bench_record(text: &str) -> Result<Vec<DesignRecord>, String> {
    let root = parse_json(text)?;
    let designs = match root.get("designs") {
        Some(Json::Arr(a)) => a,
        _ => return Err("missing `designs` array".to_string()),
    };
    designs
        .iter()
        .map(|d| {
            let design = d
                .str("design")
                .ok_or("design row without `design` name")?
                .to_string();
            let side = |key: &str| -> Result<SideRecord, String> {
                let s = d
                    .get(key)
                    .ok_or_else(|| format!("{design}: missing `{key}`"))?;
                Ok(SideRecord {
                    verdict: s
                        .str("verdict")
                        .ok_or_else(|| format!("{design}: {key}.verdict"))?
                        .to_string(),
                    method: s
                        .str("method")
                        .ok_or_else(|| format!("{design}: {key}.method"))?
                        .to_string(),
                    inspections: s
                        .num("inspections")
                        .ok_or_else(|| format!("{design}: {key}.inspections"))?
                        as u64,
                    wall_s: s
                        .num("wall_s")
                        .ok_or_else(|| format!("{design}: {key}.wall_s"))?,
                    cert_backward_s: s
                        .get("formal")
                        .and_then(|f| f.num("cert_backward_s"))
                        .unwrap_or(0.0),
                    solver: s.get("solver").map(|sv| {
                        let n = |k: &str| sv.num(k).unwrap_or(0.0) as u64;
                        SolverCounters {
                            conflicts: n("conflicts"),
                            propagations: n("propagations"),
                            chrono_backtracks: n("chrono_backtracks"),
                            vivified: n("vivified"),
                            strengthened: n("strengthened"),
                            subsumed: n("subsumed"),
                            reuse_probed: n("reuse_probed"),
                            reuse_imported: n("reuse_imported"),
                            proof_bytes: n("proof_bytes"),
                        }
                    }),
                    cache: s.get("cache").map(|cv| {
                        let n = |k: &str| cv.num(k).unwrap_or(0.0) as u64;
                        CacheCounters {
                            hits: n("hits"),
                            misses: n("misses"),
                            bytes: n("bytes"),
                            evictions: n("evictions"),
                        }
                    }),
                    ic3: s.get("ic3").map(|iv| {
                        let n = |k: &str| iv.num(k).unwrap_or(0.0) as u64;
                        Ic3Counters {
                            frames: n("frames"),
                            ctis: n("ctis"),
                            lemmas: n("lemmas"),
                            generalization_drops: n("generalization_drops"),
                            pushes: n("pushes"),
                            attempts: n("attempts"),
                            propagations: n("propagations"),
                        }
                    }),
                    product: s.get("product").map(|pv| {
                        let n = |k: &str| pv.num(k).unwrap_or(0.0) as u64;
                        ProductCounters {
                            checks: n("checks"),
                            check_aig_nodes: n("check_aig_nodes"),
                            check_sat_vars: n("check_sat_vars"),
                            check_sat_clauses: n("check_sat_clauses"),
                            one_time_sat_vars: n("one_time_sat_vars"),
                            one_time_sat_clauses: n("one_time_sat_clauses"),
                            predicates: n("predicates"),
                            guard_assumptions: n("guard_assumptions"),
                            word_fallbacks: n("word_fallbacks"),
                        }
                    }),
                })
            };
            Ok(DesignRecord {
                design: design.clone(),
                fastpath: side("fastpath")?,
                baseline: side("baseline")?,
            })
        })
        .collect()
}

/// Result of diffing a fresh record against the committed baseline.
#[derive(Clone, Debug, Default)]
pub struct BenchDiff {
    /// Gating drifts: verdict/method/inspections and work-counter
    /// changes, missing or extra designs. Non-empty fails CI.
    pub regressions: Vec<String>,
    /// Report-only notes (wall-clock slowdowns beyond tolerance).
    pub warnings: Vec<String>,
    /// Markdown summary table for the job log.
    pub markdown: String,
}

fn diff_side(design: &str, side: &str, old: &SideRecord, new: &SideRecord, out: &mut BenchDiff) {
    for (field, a, b) in [
        ("verdict", &old.verdict, &new.verdict),
        ("method", &old.method, &new.method),
    ] {
        if a != b {
            out.regressions
                .push(format!("{design} [{side}]: {field} drifted `{a}` -> `{b}`"));
        }
    }
    if old.inspections != new.inspections {
        out.regressions.push(format!(
            "{design} [{side}]: inspections drifted {} -> {}",
            old.inspections, new.inspections
        ));
    }
    if new.wall_s > old.wall_s * WALL_RATIO + WALL_SLACK_S {
        out.warnings.push(format!(
            "{design} [{side}]: {:.3}s vs baseline {:.3}s (report-only)",
            new.wall_s, old.wall_s
        ));
    }
    // A section present on exactly one side is silent data loss waiting
    // to happen (e.g. a cached run diffed against a cache-less baseline,
    // or a record predating a counter group): call it out, never gate.
    for (section, old_has, new_has) in [
        ("cache", old.cache.is_some(), new.cache.is_some()),
        ("ic3", old.ic3.is_some(), new.ic3.is_some()),
        ("product", old.product.is_some(), new.product.is_some()),
    ] {
        if old_has != new_has {
            let (with, without) = if old_has {
                ("baseline", "new record")
            } else {
                ("new record", "baseline")
            };
            out.warnings.push(format!(
                "{design} [{side}]: `{section}` counters present in the \
                 {with} but absent in the {without} — sides are not \
                 comparable on them (report-only)"
            ));
        }
    }
    // Product-size counters are deterministic and machine-independent,
    // so when both records carry them any drift is a real change to the
    // encoding and gates like a Table I column.
    if let (Some(o), Some(n)) = (&old.product, &new.product) {
        for (field, a, b) in [
            ("checks", o.checks, n.checks),
            ("check_aig_nodes", o.check_aig_nodes, n.check_aig_nodes),
            ("check_sat_vars", o.check_sat_vars, n.check_sat_vars),
            (
                "check_sat_clauses",
                o.check_sat_clauses,
                n.check_sat_clauses,
            ),
            (
                "one_time_sat_vars",
                o.one_time_sat_vars,
                n.one_time_sat_vars,
            ),
            (
                "one_time_sat_clauses",
                o.one_time_sat_clauses,
                n.one_time_sat_clauses,
            ),
            ("predicates", o.predicates, n.predicates),
            (
                "guard_assumptions",
                o.guard_assumptions,
                n.guard_assumptions,
            ),
            ("word_fallbacks", o.word_fallbacks, n.word_fallbacks),
        ] {
            if a != b {
                out.regressions.push(format!(
                    "{design} [{side}]: product {field} drifted {a} -> {b}"
                ));
            }
        }
    }
    // So are the search's work counters: a change to the SAT core or to
    // IC3 moves them before anything else, so they gate the same way.
    let work = |r: &SideRecord| {
        [
            ("solver conflicts", r.solver.map(|s| s.conflicts)),
            ("solver propagations", r.solver.map(|s| s.propagations)),
            ("ic3 propagations", r.ic3.map(|i| i.propagations)),
        ]
    };
    for ((field, a), (_, b)) in work(old).into_iter().zip(work(new)) {
        if let (Some(a), Some(b)) = (a, b) {
            if a != b {
                out.regressions
                    .push(format!("{design} [{side}]: {field} drifted {a} -> {b}"));
            }
        }
    }
}

/// Diffs `new` against `old` (both `--bench-json` texts).
///
/// # Errors
///
/// Returns a description when either record fails to parse.
pub fn diff_bench_records(old_text: &str, new_text: &str) -> Result<BenchDiff, String> {
    let old = parse_bench_record(old_text)?;
    let new = parse_bench_record(new_text)?;
    let mut out = BenchDiff::default();

    let _ = writeln!(
        out.markdown,
        "| Design | Verdict | Method | Inspections | Wall base→cur (s) |",
    );
    let _ = writeln!(out.markdown, "|---|---|---|---|---|");
    for o in &old {
        let Some(n) = new.iter().find(|n| n.design == o.design) else {
            out.regressions
                .push(format!("{}: missing from new record", o.design));
            continue;
        };
        diff_side(&o.design, "fastpath", &o.fastpath, &n.fastpath, &mut out);
        diff_side(&o.design, "baseline", &o.baseline, &n.baseline, &mut out);
        let mark = |a: &str, b: &str| {
            if a == b {
                a.to_string()
            } else {
                format!("**{a}→{b}**")
            }
        };
        let _ = writeln!(
            out.markdown,
            "| {} | {} | {} | {} | {:.3}→{:.3} |",
            n.design,
            mark(&o.fastpath.verdict, &n.fastpath.verdict),
            mark(&o.fastpath.method, &n.fastpath.method),
            mark(
                &o.fastpath.inspections.to_string(),
                &n.fastpath.inspections.to_string()
            ),
            o.fastpath.wall_s,
            n.fastpath.wall_s,
        );
    }
    for n in &new {
        if !old.iter().any(|o| o.design == n.design) {
            out.regressions
                .push(format!("{}: not in committed baseline", n.design));
        }
    }
    // Solver counters (baseline side — the solver-bound run), base→cur
    // where the committed record has them; conflicts and propagations
    // are gated in `diff_side`, the technique counters are report-only.
    let counted: Vec<_> = new
        .iter()
        .filter_map(|n| n.baseline.solver.map(|s| (n, s)))
        .collect();
    if !counted.is_empty() {
        let _ = writeln!(
            out.markdown,
            "\nSolver technique counters (baseline side; conflicts and \
             propagations gated, the rest report-only):\n"
        );
        let _ = writeln!(
            out.markdown,
            "| Design | Conflicts | Propagations | Chrono | Vivified | Strengthened | Subsumed |",
        );
        let _ = writeln!(out.markdown, "|---|---|---|---|---|---|---|");
        for (n, s) in counted {
            let base = old
                .iter()
                .find(|o| o.design == n.design)
                .and_then(|o| o.baseline.solver);
            let cell = |old_v: Option<u64>, new_v: u64| match old_v {
                Some(o) if o != new_v => format!("{o}→{new_v}"),
                _ => new_v.to_string(),
            };
            let _ = writeln!(
                out.markdown,
                "| {} | {} | {} | {} | {} | {} | {} |",
                n.design,
                cell(base.map(|b| b.conflicts), s.conflicts),
                cell(base.map(|b| b.propagations), s.propagations),
                cell(base.map(|b| b.chrono_backtracks), s.chrono_backtracks),
                cell(base.map(|b| b.vivified), s.vivified),
                cell(base.map(|b| b.strengthened), s.strengthened),
                cell(base.map(|b| b.subsumed), s.subsumed),
            );
        }
    }
    // Product-construction size (baseline side — the run that performs
    // every check): gated field-by-field in `diff_side`; the table shows
    // the current values with base→cur annotations on drift.
    let sized: Vec<_> = new
        .iter()
        .filter_map(|n| n.baseline.product.map(|p| (n, p)))
        .collect();
    if !sized.is_empty() {
        let _ = writeln!(
            out.markdown,
            "\nProduct-construction size (baseline side, gated):\n"
        );
        let _ = writeln!(
            out.markdown,
            "| Design | Checks | AIG nodes | SAT vars | SAT clauses | \
             One-time vars/clauses | Predicates | Guards | Fallbacks |",
        );
        let _ = writeln!(out.markdown, "|---|---|---|---|---|---|---|---|---|");
        for (n, p) in sized {
            let base = old
                .iter()
                .find(|o| o.design == n.design)
                .and_then(|o| o.baseline.product);
            let cell = |old_v: Option<u64>, new_v: u64| match old_v {
                Some(o) if o != new_v => format!("{o}→{new_v}"),
                _ => new_v.to_string(),
            };
            let _ = writeln!(
                out.markdown,
                "| {} | {} | {} | {} | {} | {}/{} | {} | {} | {} |",
                n.design,
                cell(base.map(|b| b.checks), p.checks),
                cell(base.map(|b| b.check_aig_nodes), p.check_aig_nodes),
                cell(base.map(|b| b.check_sat_vars), p.check_sat_vars),
                cell(base.map(|b| b.check_sat_clauses), p.check_sat_clauses),
                cell(base.map(|b| b.one_time_sat_vars), p.one_time_sat_vars),
                cell(base.map(|b| b.one_time_sat_clauses), p.one_time_sat_clauses),
                cell(base.map(|b| b.predicates), p.predicates),
                cell(base.map(|b| b.guard_assumptions), p.guard_assumptions),
                cell(base.map(|b| b.word_fallbacks), p.word_fallbacks),
            );
        }
    }
    // Report-only: clause-reuse counters plus the certification time
    // (baseline side — the run that performs every check). Reuse counts
    // depend on how warm the `--clause-store` file is, and the seconds
    // on the machine — none of them gate.
    let reused: Vec<_> = new
        .iter()
        .filter_map(|n| n.baseline.solver.map(|s| (n, s)))
        .filter(|(n, s)| {
            s.reuse_probed > 0 || s.proof_bytes > 0 || n.baseline.cert_backward_s > 0.0
        })
        .collect();
    if !reused.is_empty() {
        let _ = writeln!(
            out.markdown,
            "\nClause-reuse counters (baseline side, report-only):\n"
        );
        let _ = writeln!(
            out.markdown,
            "| Design | Clauses probed/imported/rejected | \
             Proof bytes | Hint-check (s) |",
        );
        let _ = writeln!(out.markdown, "|---|---|---|---|");
        for (n, s) in reused {
            let _ = writeln!(
                out.markdown,
                "| {} | {}/{}/{} | {} | {:.3} |",
                n.design,
                s.reuse_probed,
                s.reuse_imported,
                s.reuse_probed.saturating_sub(s.reuse_imported),
                s.proof_bytes,
                n.baseline.cert_backward_s,
            );
        }
    }
    // SecIC3 engine counters (fastpath side), for `--upec-engine ic3`
    // runs that escalated cold. Propagations are gated in `diff_side`;
    // warm invariant-cache runs legitimately drop the whole section
    // while every semantic field stays fixed, which only warns.
    let escalated: Vec<_> = new
        .iter()
        .filter_map(|n| n.fastpath.ic3.map(|i| (n, i)))
        .collect();
    if !escalated.is_empty() {
        let _ = writeln!(
            out.markdown,
            "\nSecIC3 counters (fastpath side; propagations gated, the rest \
             report-only):\n"
        );
        let _ = writeln!(
            out.markdown,
            "| Design | Attempts | Propagations | Frames | CTIs | Lemmas | Gen. drops | Pushes |"
        );
        let _ = writeln!(out.markdown, "|---|---|---|---|---|---|---|---|");
        for (n, i) in escalated {
            let _ = writeln!(
                out.markdown,
                "| {} | {} | {} | {} | {} | {} | {} | {} |",
                n.design,
                i.attempts,
                i.propagations,
                i.frames,
                i.ctis,
                i.lemmas,
                i.generalization_drops,
                i.pushes
            );
        }
    }
    // Report-only: proof-cache effectiveness (fastpath side), for
    // `--proof-cache` runs. Never gates — warm/cold runs legitimately
    // differ in hit/miss counts while every semantic field stays fixed.
    let cached: Vec<_> = new
        .iter()
        .filter_map(|n| n.fastpath.cache.map(|c| (n, c)))
        .collect();
    if !cached.is_empty() {
        let _ = writeln!(
            out.markdown,
            "\nProof-cache counters (fastpath side, report-only):\n"
        );
        let _ = writeln!(
            out.markdown,
            "| Design | Hits | Misses | Bytes | Evictions |"
        );
        let _ = writeln!(out.markdown, "|---|---|---|---|---|");
        for (n, c) in cached {
            let _ = writeln!(
                out.markdown,
                "| {} | {} | {} | {} | {} |",
                n.design, c.hits, c.misses, c.bytes, c.evictions
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"{
      "generator": "table1 --bench-json", "jobs": 1,
      "designs": [
        {"design": "A", "fastpath": {"wall_s": 0.1, "verdict": "True",
          "method": "HFG", "inspections": 0},
         "baseline": {"wall_s": 1.5, "verdict": "True",
          "method": "UPEC", "inspections": 32}}
      ]
    }"#;

    #[test]
    fn parses_the_committed_shape() {
        let rows = parse_bench_record(MINI).expect("parses");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].fastpath.method, "HFG");
        assert_eq!(rows[0].baseline.inspections, 32);
    }

    #[test]
    fn identical_records_are_clean() {
        let diff = diff_bench_records(MINI, MINI).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.warnings.is_empty());
        assert!(diff.markdown.contains("| A | True | HFG | 0 |"));
    }

    #[test]
    fn semantic_drift_gates_but_slowdown_only_warns() {
        let drifted = MINI
            .replace(
                r#""verdict": "True",
          "method": "HFG""#,
                r#""verdict": "False",
          "method": "IFT""#,
            )
            .replace(r#""wall_s": 1.5"#, r#""wall_s": 99.0"#);
        let diff = diff_bench_records(MINI, &drifted).expect("diff");
        assert_eq!(diff.regressions.len(), 2, "{:?}", diff.regressions);
        assert_eq!(diff.warnings.len(), 1, "{:?}", diff.warnings);
        assert!(diff.markdown.contains("**True→False**"));
    }

    #[test]
    fn design_set_changes_gate() {
        let renamed = MINI.replace(r#""design": "A""#, r#""design": "B""#);
        let diff = diff_bench_records(MINI, &renamed).expect("diff");
        assert_eq!(diff.regressions.len(), 2); // A missing + B unexpected
    }

    #[test]
    fn solver_counters_are_optional_and_report_only() {
        // Pre-counter records (MINI) parse with `solver: None`.
        let rows = parse_bench_record(MINI).expect("parses");
        assert!(rows[0].baseline.solver.is_none());
        // Records with a partial `solver` object default absent counters
        // to zero, and gate nothing against a record without them.
        let with_counters = MINI.replace(
            r#""method": "UPEC", "inspections": 32}"#,
            r#""method": "UPEC", "inspections": 32,
               "solver": {"conflicts": 10, "vivified": 3}}"#,
        );
        let rows = parse_bench_record(&with_counters).expect("parses");
        let s = rows[0].baseline.solver.expect("present");
        assert_eq!(s.conflicts, 10);
        assert_eq!(s.vivified, 3);
        assert_eq!(s.subsumed, 0, "absent counters default to 0");
        let diff = diff_bench_records(MINI, &with_counters).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.markdown.contains("Solver technique counters"));
        // Technique-counter drift against a counted baseline is
        // annotated, not gated.
        let drifted = with_counters.replace(r#""vivified": 3"#, r#""vivified": 7"#);
        let diff = diff_bench_records(&with_counters, &drifted).expect("diff");
        assert!(diff.regressions.is_empty());
        assert!(diff.markdown.contains("3→7"));
    }

    #[test]
    fn reuse_counters_are_report_only() {
        // Records without reuse activity render no reuse section.
        let diff = diff_bench_records(MINI, MINI).expect("diff");
        assert!(!diff.markdown.contains("Clause-reuse"));
        // A clause-store record gains the section; the counters and the
        // certification time split never gate.
        let reused = MINI.replace(
            r#""method": "UPEC", "inspections": 32}"#,
            r#""method": "UPEC", "inspections": 32,
               "formal": {"checks": 4, "cert_backward_s": 0.25},
               "solver": {"conflicts": 10, "reuse_probed": 9,
                 "reuse_imported": 5, "proof_bytes": 4096}}"#,
        );
        let rows = parse_bench_record(&reused).expect("parses");
        let s = rows[0].baseline.solver.expect("present");
        assert_eq!(s.reuse_imported, 5);
        assert_eq!(s.proof_bytes, 4096);
        assert!((rows[0].baseline.cert_backward_s - 0.25).abs() < 1e-9);
        let diff = diff_bench_records(&reused, &reused).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.markdown.contains("Clause-reuse"));
        // rejected = probed - imported.
        assert!(diff.markdown.contains("| 9/5/4 |"));
        // Counter drift (a warmer store) is annotated nowhere and gates
        // nothing.
        let drifted = reused.replace(r#""reuse_imported": 5"#, r#""reuse_imported": 8"#);
        let diff = diff_bench_records(&reused, &drifted).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
    }

    #[test]
    fn cache_counters_are_optional_and_report_only() {
        // Cache-less records (MINI) parse with `cache: None`.
        let rows = parse_bench_record(MINI).expect("parses");
        assert!(rows[0].fastpath.cache.is_none());
        // A `--proof-cache` record gains a report-only section; hit/miss
        // drift between cold and warm runs never gates.
        let cold = MINI.replace(
            r#""method": "HFG", "inspections": 0}"#,
            r#""method": "HFG", "inspections": 0,
               "cache": {"hits": 0, "misses": 12, "bytes": 4096, "evictions": 0}}"#,
        );
        let warm = cold.replace(r#""hits": 0, "misses": 12"#, r#""hits": 12, "misses": 0"#);
        let rows = parse_bench_record(&warm).expect("parses");
        let c = rows[0].fastpath.cache.expect("present");
        assert_eq!(c.hits, 12);
        assert_eq!(c.bytes, 4096);
        let diff = diff_bench_records(&cold, &warm).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.markdown.contains("Proof-cache counters"));
        // And a cache-less baseline still diffs clean against a cached
        // run — but the asymmetry is called out, because the sides are
        // not comparable on the cache counters.
        let diff = diff_bench_records(MINI, &warm).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("`cache` counters") && w.contains("absent")),
            "{:?}",
            diff.warnings
        );
    }

    #[test]
    fn ic3_counters_are_optional_and_report_only() {
        // Pre-SecIC3 records (MINI) parse with `ic3: None`.
        let rows = parse_bench_record(MINI).expect("parses");
        assert!(rows[0].fastpath.ic3.is_none());
        // An escalated `--upec-engine ic3` record gains a section whose
        // counters, apart from propagations, never gate.
        let cold = MINI.replace(
            r#""method": "HFG", "inspections": 0}"#,
            r#""method": "HFG", "inspections": 0,
               "ic3": {"frames": 5, "ctis": 9, "lemmas": 14,
                 "generalization_drops": 21, "pushes": 6,
                 "attempts": 2, "propagations": 345678}}"#,
        );
        let rows = parse_bench_record(&cold).expect("parses");
        let i = rows[0].fastpath.ic3.expect("present");
        assert_eq!(i.frames, 5);
        assert_eq!(i.lemmas, 14);
        assert_eq!((i.attempts, i.propagations), (2, 345_678));
        let diff = diff_bench_records(&cold, &cold).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.markdown.contains("SecIC3 counters"));
        assert!(
            diff.markdown.contains("| 2 | 345678 | 5 |"),
            "{}",
            diff.markdown
        );
        let drifted = cold.replace(r#""lemmas": 14"#, r#""lemmas": 20"#);
        let diff = diff_bench_records(&cold, &drifted).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        // A warm (invariant-cache-served) run drops the whole section:
        // the asymmetry warns, never gates.
        let diff = diff_bench_records(&cold, MINI).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("`ic3` counters") && w.contains("absent")),
            "{:?}",
            diff.warnings
        );
    }

    #[test]
    fn product_counters_gate_when_both_sides_have_them() {
        let sized = MINI.replace(
            r#""method": "UPEC", "inspections": 32}"#,
            r#""method": "UPEC", "inspections": 32,
               "product": {"checks": 4, "check_aig_nodes": 100,
                 "check_sat_vars": 500, "check_sat_clauses": 1500,
                 "one_time_sat_vars": 900, "one_time_sat_clauses": 2700,
                 "predicates": 7, "guard_assumptions": 12}}"#,
        );
        let rows = parse_bench_record(&sized).expect("parses");
        let p = rows[0].baseline.product.expect("present");
        assert_eq!(p.check_sat_vars, 500);
        assert_eq!(p.predicates, 7);
        // Identical product counters diff clean and render the table.
        let diff = diff_bench_records(&sized, &sized).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.warnings.is_empty(), "{:?}", diff.warnings);
        assert!(diff.markdown.contains("Product-construction size"));
        // Any drift gates — the counters are deterministic, so a change
        // is a real encoding change needing a baseline update.
        let drifted = sized.replace(r#""check_sat_vars": 500"#, r#""check_sat_vars": 425"#);
        let diff = diff_bench_records(&sized, &drifted).expect("diff");
        assert_eq!(diff.regressions.len(), 1, "{:?}", diff.regressions);
        assert!(diff.regressions[0].contains("check_sat_vars drifted 500 -> 425"));
        assert!(diff.markdown.contains("500→425"));
    }

    /// MINI with work counters on both sides of design A.
    fn with_work(conflicts: u64, propagations: u64, ic3_propagations: u64) -> String {
        MINI.replace(
            r#""method": "HFG", "inspections": 0}"#,
            &format!(
                r#""method": "HFG", "inspections": 0,
               "ic3": {{"attempts": 2, "propagations": {ic3_propagations}}}}}"#
            ),
        )
        .replace(
            r#""method": "UPEC", "inspections": 32}"#,
            &format!(
                r#""method": "UPEC", "inspections": 32,
               "solver": {{"conflicts": {conflicts}, "propagations": {propagations},
                 "vivified": 3}}}}"#
            ),
        )
    }

    #[test]
    fn work_counters_gate_on_any_drift() {
        let base = with_work(1000, 50_000, 345_678);
        let rows = parse_bench_record(&base).expect("parses");
        let s = rows[0].baseline.solver.expect("present");
        assert_eq!((s.conflicts, s.propagations), (1000, 50_000));
        // An identical pair stays clean.
        let diff = diff_bench_records(&base, &base).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(diff.warnings.is_empty(), "{:?}", diff.warnings);
        // A 20 % rise in one flow's conflicts gates.
        let diff = diff_bench_records(&base, &with_work(1200, 50_000, 345_678)).expect("diff");
        assert_eq!(
            diff.regressions,
            ["A [baseline]: solver conflicts drifted 1000 -> 1200"]
        );
        assert!(diff.markdown.contains("1000→1200"), "{}", diff.markdown);
        // So does any change in propagations, the solver's or IC3's.
        let diff = diff_bench_records(&base, &with_work(1000, 49_999, 345_678)).expect("diff");
        assert_eq!(
            diff.regressions,
            ["A [baseline]: solver propagations drifted 50000 -> 49999"]
        );
        let diff = diff_bench_records(&base, &with_work(1000, 50_000, 345_679)).expect("diff");
        assert_eq!(
            diff.regressions,
            ["A [fastpath]: ic3 propagations drifted 345678 -> 345679"]
        );
        // A technique counter still only annotates.
        let drifted = base.replace(r#""vivified": 3"#, r#""vivified": 9"#);
        let diff = diff_bench_records(&base, &drifted).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
    }

    #[test]
    fn product_counters_absent_on_one_side_warn_not_gate() {
        let sized = MINI.replace(
            r#""method": "UPEC", "inspections": 32}"#,
            r#""method": "UPEC", "inspections": 32,
               "product": {"checks": 4}}"#,
        );
        // A pre-counter baseline never gates against a counted record…
        let diff = diff_bench_records(MINI, &sized).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        // …but the one-sided section is flagged so the asymmetry is
        // visible in the job log.
        assert!(
            diff.warnings
                .iter()
                .any(|w| w.contains("`product` counters") && w.contains("absent")),
            "{:?}",
            diff.warnings
        );
        // Same in the other direction (a record that lost the section).
        let diff = diff_bench_records(&sized, MINI).expect("diff");
        assert!(diff.regressions.is_empty(), "{:?}", diff.regressions);
        assert!(!diff.warnings.is_empty());
    }

    #[test]
    fn real_baseline_file_parses_and_self_diffs_clean() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_table1.json"
        ))
        .expect("committed baseline");
        let rows = parse_bench_record(&text).expect("parses");
        assert_eq!(rows.len(), 8, "Table I has eight designs");
        let diff = diff_bench_records(&text, &text).expect("diff");
        assert!(diff.regressions.is_empty());
        assert!(diff.warnings.is_empty());
    }
}
