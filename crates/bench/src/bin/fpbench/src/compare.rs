//! `fpbench compare A.json B.json`: judges result file `B` against
//! baseline `A`, metric by metric, with the bounds of `BENCHMARK.json`.

use fastpath_bench::benchdiff::{parse_json, Json};
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    Better,
    Same,
    Worse,
    /// A side lacks the metric or its run was not correct.
    Unresolved,
}

impl Judgement {
    fn label(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::Same => "same",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric's regression rule.
struct Bound {
    name: String,
    lower_is_better: bool,
    /// Share of the baseline value the metric may worsen by.
    bound: f64,
}

fn get<'a>(json: &'a Json, key: &str) -> Option<&'a Json> {
    match json {
        Json::Obj(map) => map.get(key),
        _ => None,
    }
}

fn num(json: &Json, key: &str) -> Option<f64> {
    match get(json, key)? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(metrics)) = get(benchmark, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match get(m, "name") {
                Some(Json::Str(s)) => s.clone(),
                _ => return Err("end_to_end metric without a name".to_string()),
            };
            let lower_is_better = match get(m, "better") {
                Some(Json::Str(s)) => s == "lower",
                _ => return Err(format!("{name}: no `better`")),
            };
            let bound = num(m, "bound").ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name,
                lower_is_better,
                bound,
            })
        })
        .collect()
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub judgement: Judgement,
    pub detail: String,
}

fn judge(bound: &Bound, a: f64, b: f64) -> (Judgement, String) {
    if a == 0.0 {
        return (Judgement::Unresolved, format!("{a} -> {b}"));
    }
    let mut change = (b - a) / a;
    if !bound.lower_is_better {
        change = -change;
    }
    let judgement = if change > bound.bound {
        Judgement::Worse
    } else if change < -bound.bound {
        Judgement::Better
    } else {
        Judgement::Same
    };
    let pct = 100.0 * (b - a) / a;
    (
        judgement,
        format!(
            "{a:.6} -> {b:.6} ({pct:+.1} %, bound {:.0} %)",
            100.0 * bound.bound
        ),
    )
}

/// Compares result documents `a` (baseline) and `b`. Refuses results
/// taken with different protocol arguments or pass counts.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<Vec<Row>, String> {
    let a = parse_json(a).map_err(|e| format!("baseline: {e}"))?;
    let b = parse_json(b).map_err(|e| format!("candidate: {e}"))?;
    let bounds = bounds(&parse_json(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?)?;
    let (pa, pb) = (get(&a, "protocol"), get(&b, "protocol"));
    for key in ["argv", "passes"] {
        if pa.and_then(|p| get(p, key)) != pb.and_then(|p| get(p, key)) {
            return Err(format!(
                "refusing to compare: the results differ in `{key}`"
            ));
        }
    }
    let Some(Json::Obj(workloads)) = get(&a, "workloads") else {
        return Err("baseline has no workloads".to_string());
    };
    let mut rows = Vec::new();
    for (w, ra) in workloads {
        let rb = get(&b, "workloads").and_then(|ws| get(ws, w));
        let correct =
            |r: Option<&Json>| r.and_then(|r| get(r, "correct")) == Some(&Json::Bool(true));
        let trusted = correct(Some(ra)) && correct(rb);
        let value = |r: Option<&Json>, m: &str| {
            r.and_then(|r| get(r, "metrics"))
                .and_then(|ms| get(ms, m))
                .and_then(|v| num(v, "value"))
        };
        for bound in &bounds {
            let (judgement, detail) = match (value(Some(ra), &bound.name), value(rb, &bound.name)) {
                (Some(va), Some(vb)) if trusted => judge(bound, va, vb),
                _ => (
                    Judgement::Unresolved,
                    "missing, or a run was not correct".to_string(),
                ),
            };
            rows.push(Row {
                workload: w.clone(),
                metric: bound.name.clone(),
                judgement,
                detail,
            });
        }
        let failed_a = num(ra, "failed").unwrap_or(0.0);
        let failed_b = rb.and_then(|r| num(r, "failed")).unwrap_or(f64::INFINITY);
        rows.push(Row {
            workload: w.clone(),
            metric: "failed".to_string(),
            judgement: if failed_b > failed_a {
                Judgement::Worse
            } else {
                Judgement::Same
            },
            detail: format!("{failed_a} -> {failed_b}"),
        });
    }
    Ok(rows)
}

/// Prints the comparison; `Ok(false)` when any metric got worse.
pub fn run(a: &Path, b: &Path, benchmark: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let rows = compare(&read(a)?, &read(b)?, &read(benchmark)?)?;
    for r in &rows {
        println!(
            "{:<10} {:<14} {:<10} {}",
            r.workload,
            r.metric,
            r.judgement.label(),
            r.detail
        );
    }
    Ok(rows.iter().all(|r| r.judgement != Judgement::Worse))
}
