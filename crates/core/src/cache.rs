//! Content-addressed verification cache: keys, entry formats, and the
//! backend trait the flow layers talk to.
//!
//! The cache memoizes two kinds of results across runs:
//!
//! * **UPEC checks** ([`CachedCheck`]): keyed by the canonical structural
//!   hash of the module ([`fastpath_rtl::canonical_form`]) plus the exact
//!   check configuration (full vs state-only, the untainted candidate set
//!   `Z'`, and every active constraint / invariant / conditional equality,
//!   all expressed as canonical labels so renaming and declaration
//!   reordering do not fragment the cache).
//! * **IFT simulation runs** ([`CachedSim`]): keyed by the *exact*
//!   serialized netlist — the random testbench draws stimulus in signal
//!   declaration order, so unlike a SAT verdict a simulation result is
//!   only reusable for a byte-identical design.
//!
//! A cache hit is never trusted blindly:
//!
//! * every entry carries a content checksum, verified on decode;
//! * an `UNSAT` verdict is stored as the `(core CNF, hinted proof)` pair
//!   the live certification emitted, and **re-certified on load** by
//!   walking its hints ([`fastpath_cert::check_hinted_unsat_artifact`]) —
//!   a tampered or bit-rotted proof is rejected and the check is
//!   re-proved;
//! * a cached counterexample is replayed through concrete two-instance
//!   simulation ([`crate::witness::confirm_counterexample`]) before the
//!   flow acts on it.
//!
//! Because every hit is validated, attaching a cache implies
//! certification: [`crate::run_fastpath_with`] enables the certified
//! check path whenever [`crate::FlowOptions::cache`] is set, so warm and
//! cold runs produce identical reports.

use fastpath_formal::{
    RelationalClause, RelationalLit, StateWitness, UpecCounterexample, UpecEncoding,
};
use fastpath_rtl::{
    write_netlist, BitVec, CanonicalForm, Digest, ExprId, Module, SignalId, SignalKind,
    StableHasher,
};
use fastpath_sim::{FlowPolicy, IftReport, IftViolation};
use std::fmt;
use std::sync::Mutex;

/// Domain-separation seed for check keys.
const TAG_CHECK_KEY: u64 = 0x66_70_63_6b; // "fpck"
/// Domain-separation seed for simulation keys.
const TAG_SIM_KEY: u64 = 0x66_70_73_6b; // "fpsk"
/// Domain-separation seed for entry checksums.
const TAG_ENTRY_SUM: u64 = 0x66_70_65_73; // "fpes"
/// Domain-separation seed for exact (text-level) module hashes.
const TAG_EXACT: u64 = 0x66_70_65_78; // "fpex"

/// The entry namespaces a backend must keep apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CacheKind {
    /// A memoized UPEC check verdict.
    Check,
    /// A memoized IFT simulation report.
    Sim,
    /// A machine-derived relational invariant ([`CachedInvariant`]): the
    /// IC3 engine's closing clauses plus the certified strengthened-check
    /// proof, keyed exactly like the plain check they discharge. A warm
    /// hit skips frame reconstruction entirely — the stored proof is
    /// re-certified and the clauses re-checked at reset on load.
    Invariant,
}

impl CacheKind {
    /// Stable short name, used by disk backends as a directory name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::Check => "checks",
            CacheKind::Sim => "sims",
            CacheKind::Invariant => "invariants",
        }
    }
}

/// Store-side occupancy counters a backend reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheUsage {
    /// Bytes currently held by the backend.
    pub bytes: u64,
    /// Entries evicted over the backend's lifetime.
    pub evictions: u64,
}

/// Cache effectiveness counters for one flow run, surfaced in
/// `--bench-json` and the daemon's status report (never in the rendered
/// verification report, which stays byte-identical warm or cold).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by a validated cache entry.
    pub hits: u64,
    /// Lookups that missed — absent, corrupt, or failed re-validation.
    pub misses: u64,
    /// Bytes held by the backend when the run finished. Read through
    /// [`ProofCache::usage`], which the service's disk store answers from
    /// its byte ledger, so filling it costs the same whatever the size of
    /// the store.
    pub bytes: u64,
    /// Entries the backend evicted over its lifetime.
    pub evictions: u64,
}

impl CacheStats {
    /// Folds another run's counters into this one. Store-side numbers
    /// (`bytes`, `evictions`) take the maximum rather than the sum — the
    /// runs shared one backend.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bytes = self.bytes.max(other.bytes);
        self.evictions = self.evictions.max(other.evictions);
    }
}

/// A verification-cache backend: a blob store addressed by
/// `(namespace, digest)`.
///
/// Implementations only move opaque text; all entry encoding, checksum
/// verification, and proof re-validation happen in this module, so a
/// backend cannot accidentally serve an untrusted verdict.
pub trait ProofCache: fmt::Debug + Send + Sync {
    /// Loads the entry stored under `key`, if any.
    fn load(&self, kind: CacheKind, key: &Digest) -> Option<String>;
    /// Stores (or overwrites) the entry under `key`.
    fn store(&self, kind: CacheKind, key: &Digest, entry: &str);
    /// Current occupancy of the backend. Every flow run calls this once
    /// at its end, so it must not grow with the backend's history: the
    /// service's disk store reads two counter files, and costs the same
    /// whatever the number of entries it holds.
    fn usage(&self) -> CacheUsage {
        CacheUsage::default()
    }
}

/// An in-memory [`ProofCache`] — the unit-test backend, and the warm
/// process-local tier of the daemon.
#[derive(Debug, Default)]
pub struct MemoryCache {
    entries: Mutex<std::collections::HashMap<(CacheKind, Digest), String>>,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ProofCache for MemoryCache {
    fn load(&self, kind: CacheKind, key: &Digest) -> Option<String> {
        self.entries.lock().unwrap().get(&(kind, *key)).cloned()
    }

    fn store(&self, kind: CacheKind, key: &Digest, entry: &str) {
        self.entries
            .lock()
            .unwrap()
            .insert((kind, *key), entry.to_string());
    }

    fn usage(&self) -> CacheUsage {
        let entries = self.entries.lock().unwrap();
        CacheUsage {
            bytes: entries.values().map(|v| v.len() as u64).sum(),
            evictions: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Which property variant a check key describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckKind {
    /// The full 2-safety property (state and attacker-observable outputs).
    Full,
    /// The state-only partitioning check the baseline iterates first.
    StateOnly,
}

/// The exact (text-level) hash of a module: names, declaration order and
/// all. Used to key results that depend on more than the module's
/// semantics — the random testbench draws stimulus per declared input.
pub fn exact_module_hash(module: &Module) -> Digest {
    let mut h = StableHasher::new(TAG_EXACT);
    h.write_bytes(write_netlist(module).as_bytes());
    h.finish()
}

/// The content address of one UPEC check: canonical module hash plus the
/// canonical labels of everything that parameterizes the property. Two
/// modules that differ only by signal names or declaration order map to
/// the same key; any semantic difference changes it. The encoding is part
/// of the key: verdicts are encoding-independent, but cached SAT entries
/// carry concrete witness models whose consistency was established
/// against one encoding's product.
#[allow(clippy::too_many_arguments)]
pub fn check_key(
    canon: &CanonicalForm,
    kind: CheckKind,
    encoding: UpecEncoding,
    z_prime: &[SignalId],
    constraints: &[ExprId],
    invariants: &[ExprId],
    cond_eqs: &[(ExprId, SignalId)],
) -> Digest {
    let mut h = StableHasher::new(TAG_CHECK_KEY);
    h.write_digest(canon.module_hash());
    h.write_u64(match kind {
        CheckKind::Full => 1,
        CheckKind::StateOnly => 2,
    });
    h.write_u64(match encoding {
        UpecEncoding::Bits => 1,
        UpecEncoding::Words => 2,
    });
    // Z' as a sorted label multiset: index order is layout-specific, label
    // order is canonical.
    let mut z_labels: Vec<Digest> = z_prime.iter().map(|&s| canon.signal_label(s)).collect();
    z_labels.sort_unstable();
    h.write_u64(z_labels.len() as u64);
    for label in z_labels {
        h.write_digest(label);
    }
    // Constraints / invariants / conditional equalities in activation
    // order (the order they were encoded into the engine).
    h.write_u64(constraints.len() as u64);
    for &e in constraints {
        h.write_digest(canon.expr_label(e));
    }
    h.write_u64(invariants.len() as u64);
    for &e in invariants {
        h.write_digest(canon.expr_label(e));
    }
    h.write_u64(cond_eqs.len() as u64);
    for &(cond, signal) in cond_eqs {
        h.write_digest(canon.expr_label(cond));
        h.write_digest(canon.signal_label(signal));
    }
    h.finish()
}

/// The content address of one IFT simulation run. Keyed by the *exact*
/// module hash (stimulus follows declaration order), the run parameters,
/// and the names of the active testbench restrictions — restriction
/// *bodies* are closures owned by the named case study, so the study name
/// pins their meaning.
#[allow(clippy::too_many_arguments)]
pub fn sim_key(
    exact: Digest,
    study_name: &str,
    seed: u64,
    cycles: u64,
    policy: FlowPolicy,
    has_configure: bool,
    constraint_names: &[&str],
    declassified: &[SignalId],
) -> Digest {
    let mut h = StableHasher::new(TAG_SIM_KEY);
    h.write_digest(exact);
    h.write_bytes(study_name.as_bytes());
    h.write_u64(seed);
    h.write_u64(cycles);
    h.write_u64(match policy {
        FlowPolicy::Precise => 1,
        FlowPolicy::Conservative => 2,
    });
    h.write_u64(has_configure as u64);
    h.write_u64(constraint_names.len() as u64);
    for name in constraint_names {
        h.write_bytes(name.as_bytes());
    }
    let mut declassified: Vec<u64> = declassified.iter().map(|s| s.index() as u64).collect();
    declassified.sort_unstable();
    h.write_u64(declassified.len() as u64);
    for d in declassified {
        h.write_u64(d);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Entries
// ---------------------------------------------------------------------------

/// Witness values for one signal in a cached counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedWitness {
    /// Signal index in the module the entry was recorded against.
    pub signal: u32,
    /// Bit width (validated against the module on load).
    pub width: u32,
    /// Instance-0 value limbs.
    pub inst0: Vec<u64>,
    /// Instance-1 value limbs.
    pub inst1: Vec<u64>,
}

impl CachedWitness {
    fn from_witness(w: &StateWitness) -> Self {
        CachedWitness {
            signal: w.signal.index() as u32,
            width: w.inst0.width(),
            inst0: w.inst0.limbs().to_vec(),
            inst1: w.inst1.limbs().to_vec(),
        }
    }

    fn to_witness(&self, module: &Module, expect: SignalKind) -> Option<StateWitness> {
        let index = self.signal as usize;
        if index >= module.signal_count() {
            return None;
        }
        let id = SignalId::from_index(index);
        let signal = module.signal(id);
        if signal.width != self.width || signal.kind != expect {
            return None;
        }
        Some(StateWitness {
            signal: id,
            inst0: BitVec::from_limbs(self.width, &self.inst0),
            inst1: BitVec::from_limbs(self.width, &self.inst1),
        })
    }
}

/// A cached counterexample: the full witness, so the flow can classify it
/// exactly as it would a fresh one. Signal indices are layout-specific —
/// [`CachedCex::to_counterexample`] validates them against the receiving
/// module and the caller must additionally confirm the witness by
/// concrete replay before acting on it.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CachedCex {
    /// Indices of `Z'` signals that diverged.
    pub divergent_state: Vec<u32>,
    /// Indices of control outputs that diverged.
    pub divergent_outputs: Vec<u32>,
    /// Spec indices of violated conditional equalities.
    pub violated_cond_eqs: Vec<u32>,
    /// State witness at time `t`.
    pub state_values: Vec<CachedWitness>,
    /// Input witness at time `t`.
    pub input_values_t: Vec<CachedWitness>,
    /// Input witness at time `t+1`.
    pub input_values_t1: Vec<CachedWitness>,
}

impl CachedCex {
    /// Records a live counterexample for storage.
    pub fn from_counterexample(cex: &UpecCounterexample) -> Self {
        CachedCex {
            divergent_state: cex
                .divergent_state
                .iter()
                .map(|s| s.index() as u32)
                .collect(),
            divergent_outputs: cex
                .divergent_outputs
                .iter()
                .map(|s| s.index() as u32)
                .collect(),
            violated_cond_eqs: cex.violated_cond_eqs.iter().map(|&i| i as u32).collect(),
            state_values: cex
                .state_values
                .iter()
                .map(CachedWitness::from_witness)
                .collect(),
            input_values_t: cex
                .input_values_t
                .iter()
                .map(CachedWitness::from_witness)
                .collect(),
            input_values_t1: cex
                .input_values_t1
                .iter()
                .map(CachedWitness::from_witness)
                .collect(),
        }
    }

    /// Rebuilds the counterexample against `module`, validating every
    /// signal index, kind, and width. `None` means the entry was recorded
    /// against a different layout (e.g. the same design with declarations
    /// reordered) — the caller treats that as a miss.
    pub fn to_counterexample(&self, module: &Module) -> Option<UpecCounterexample> {
        let signal = |&i: &u32| {
            let index = i as usize;
            (index < module.signal_count()).then(|| SignalId::from_index(index))
        };
        Some(UpecCounterexample {
            divergent_state: self
                .divergent_state
                .iter()
                .map(signal)
                .collect::<Option<_>>()?,
            divergent_outputs: self
                .divergent_outputs
                .iter()
                .map(signal)
                .collect::<Option<_>>()?,
            violated_cond_eqs: self.violated_cond_eqs.iter().map(|&i| i as usize).collect(),
            state_values: self
                .state_values
                .iter()
                .map(|w| w.to_witness(module, SignalKind::Register))
                .collect::<Option<_>>()?,
            input_values_t: self
                .input_values_t
                .iter()
                .map(|w| w.to_witness(module, SignalKind::Input))
                .collect::<Option<_>>()?,
            input_values_t1: self
                .input_values_t1
                .iter()
                .map(|w| w.to_witness(module, SignalKind::Input))
                .collect::<Option<_>>()?,
        })
    }
}

/// One memoized UPEC check verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedCheck {
    /// The property held and the refutation is stored alongside: the
    /// backward-trimmed core of the check formula and a proof whose lines
    /// carry LRAT-style propagation hints, so load-time re-certification
    /// is a linear hint walk instead of full unit propagation.
    HoldsHinted {
        /// DIMACS CNF of the trimmed check formula.
        cnf: String,
        /// Hinted refutation (`<lits> 0 <1-based clause hints> 0` lines).
        proof: String,
    },
    /// The property held trivially — every difference monitor folded to
    /// constant false during elaboration, so there is no proof object
    /// beyond the construction itself. Protected by the entry checksum
    /// and the content address only.
    HoldsTrivial,
    /// The property failed with the stored witness.
    Cex(CachedCex),
}

/// A memoized IC3 discharge: the machine-derived relational invariant and
/// the certified strengthened-check verdict it closed. The clauses are
/// layout-specific (register positions in `state_signals()` order), so the
/// flow validates them against the receiving module
/// ([`fastpath_formal::RelationalInvariant::is_well_formed`]) and
/// re-checks them at reset before trusting the entry; the embedded check
/// entry is re-certified exactly like a [`CachedCheck`] hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedInvariant {
    /// The inductive invariant's clauses, in derivation order.
    pub clauses: Vec<RelationalClause>,
    /// The strengthened check's stored verdict (a `Holds` form: the entry
    /// exists only because the discharge was certified).
    pub check: CachedCheck,
}

/// A memoized IFT simulation report.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CachedSim {
    /// Cycles simulated.
    pub cycles_run: u64,
    /// Property violations as `(output index, first tainted cycle)`.
    pub violations: Vec<(u32, u64)>,
    /// Indices of tainted state signals.
    pub tainted_state: Vec<u32>,
    /// Indices of untainted state signals (`Z'`).
    pub untainted_state: Vec<u32>,
    /// First taint cycle per signal (dense, one slot per module signal).
    pub first_taint_cycle: Vec<Option<u64>>,
}

impl CachedSim {
    /// Records a live report for storage.
    pub fn from_report(report: &IftReport) -> Self {
        CachedSim {
            cycles_run: report.cycles_run,
            violations: report
                .violations
                .iter()
                .map(|v| (v.output.index() as u32, v.cycle))
                .collect(),
            tainted_state: report
                .tainted_state
                .iter()
                .map(|s| s.index() as u32)
                .collect(),
            untainted_state: report
                .untainted_state
                .iter()
                .map(|s| s.index() as u32)
                .collect(),
            first_taint_cycle: report.first_taint_cycle.clone(),
        }
    }

    /// Rebuilds the report against `module`, validating indices and the
    /// dense-vector length. `None` is a miss.
    pub fn to_report(&self, module: &Module) -> Option<IftReport> {
        if self.first_taint_cycle.len() != module.signal_count() {
            return None;
        }
        let signal = |&i: &u32| {
            let index = i as usize;
            (index < module.signal_count()).then(|| SignalId::from_index(index))
        };
        Some(IftReport {
            cycles_run: self.cycles_run,
            violations: self
                .violations
                .iter()
                .map(|&(output, cycle)| {
                    signal(&output).map(|output| IftViolation { output, cycle })
                })
                .collect::<Option<_>>()?,
            tainted_state: self
                .tainted_state
                .iter()
                .map(signal)
                .collect::<Option<_>>()?,
            untainted_state: self
                .untainted_state
                .iter()
                .map(signal)
                .collect::<Option<_>>()?,
            first_taint_cycle: self.first_taint_cycle.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

const MAGIC_CHECK: &str = "fastpath-cache check 1";
const MAGIC_SIM: &str = "fastpath-cache sim 1";
const MAGIC_INVARIANT: &str = "fastpath-cache invariant 1";

fn entry_sum(body: &str) -> Digest {
    let mut h = StableHasher::new(TAG_ENTRY_SUM);
    h.write_bytes(body.as_bytes());
    h.finish()
}

fn push_indices(out: &mut String, tag: &str, values: &[u32]) {
    out.push_str(tag);
    for v in values {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

fn push_witnesses(out: &mut String, tag: &str, values: &[CachedWitness]) {
    out.push_str(&format!("{tag} {}\n", values.len()));
    for w in values {
        out.push_str(&format!("w {} {} {}", w.signal, w.width, w.inst0.len()));
        for limb in w.inst0.iter().chain(&w.inst1) {
            out.push_str(&format!(" {limb:x}"));
        }
        out.push('\n');
    }
}

/// Serializes a check entry to its storable text form (checksummed).
pub fn encode_check(entry: &CachedCheck) -> String {
    let mut out = String::new();
    out.push_str(MAGIC_CHECK);
    out.push('\n');
    match entry {
        CachedCheck::HoldsHinted { cnf, proof } => {
            out.push_str("holds hinted\n");
            out.push_str(&format!("cnf {}\n", cnf.len()));
            out.push_str(cnf);
            out.push_str(&format!("hints {}\n", proof.len()));
            out.push_str(proof);
        }
        CachedCheck::HoldsTrivial => out.push_str("holds trivial\n"),
        CachedCheck::Cex(cex) => {
            out.push_str("cex\n");
            push_indices(&mut out, "dstate", &cex.divergent_state);
            push_indices(&mut out, "douts", &cex.divergent_outputs);
            push_indices(&mut out, "dceq", &cex.violated_cond_eqs);
            push_witnesses(&mut out, "sw", &cex.state_values);
            push_witnesses(&mut out, "it", &cex.input_values_t);
            push_witnesses(&mut out, "it1", &cex.input_values_t1);
        }
    }
    let sum = entry_sum(&out);
    out.push_str(&format!("sum {}\n", sum.to_hex()));
    out
}

/// Serializes a simulation entry to its storable text form (checksummed).
pub fn encode_sim(entry: &CachedSim) -> String {
    let mut out = String::new();
    out.push_str(MAGIC_SIM);
    out.push('\n');
    out.push_str(&format!("cycles {}\n", entry.cycles_run));
    out.push_str(&format!("viol {}\n", entry.violations.len()));
    for &(output, cycle) in &entry.violations {
        out.push_str(&format!("v {output} {cycle}\n"));
    }
    push_indices(&mut out, "tainted", &entry.tainted_state);
    push_indices(&mut out, "untainted", &entry.untainted_state);
    out.push_str(&format!("taintcycle {}\n", entry.first_taint_cycle.len()));
    out.push('t');
    for c in &entry.first_taint_cycle {
        match c {
            Some(c) => out.push_str(&format!(" {c}")),
            None => out.push_str(" -"),
        }
    }
    out.push('\n');
    let sum = entry_sum(&out);
    out.push_str(&format!("sum {}\n", sum.to_hex()));
    out
}

/// Serializes an invariant entry to its storable text form (checksummed).
/// The embedded check entry is stored as its own encoded (and thus
/// independently checksummed) blob.
pub fn encode_invariant(entry: &CachedInvariant) -> String {
    let mut out = String::new();
    out.push_str(MAGIC_INVARIANT);
    out.push('\n');
    out.push_str(&format!("clauses {}\n", entry.clauses.len()));
    for clause in &entry.clauses {
        out.push('c');
        for lit in &clause.lits {
            out.push_str(&format!(
                " {} {} {} {}",
                lit.reg,
                lit.inst,
                lit.bit,
                if lit.positive { 1 } else { 0 }
            ));
        }
        out.push('\n');
    }
    let check = encode_check(&entry.check);
    out.push_str(&format!("check {}\n", check.len()));
    out.push_str(&check);
    let sum = entry_sum(&out);
    out.push_str(&format!("sum {}\n", sum.to_hex()));
    out
}

/// Why a stored entry failed to decode. Callers treat every variant as a
/// cache miss; the distinction is for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheDecodeError(pub String);

impl fmt::Display for CacheDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache entry rejected: {}", self.0)
    }
}

impl std::error::Error for CacheDecodeError {}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// The next `\n`-terminated line (without the terminator).
    fn line(&mut self) -> Result<&'a str, CacheDecodeError> {
        let rest = &self.text[self.pos..];
        let end = rest
            .find('\n')
            .ok_or_else(|| CacheDecodeError("truncated entry".into()))?;
        self.pos += end + 1;
        Ok(&rest[..end])
    }

    /// The next `n` raw bytes.
    fn take(&mut self, n: usize) -> Result<&'a str, CacheDecodeError> {
        let rest = &self.text[self.pos..];
        if rest.len() < n || !rest.is_char_boundary(n) {
            return Err(CacheDecodeError("truncated blob".into()));
        }
        self.pos += n;
        Ok(&rest[..n])
    }
}

fn bad(context: &str) -> CacheDecodeError {
    CacheDecodeError(format!("malformed {context}"))
}

fn parse_indices(line: &str, tag: &str) -> Result<Vec<u32>, CacheDecodeError> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| bad(&format!("`{tag}` line")))?;
    rest.split_whitespace()
        .map(|t| t.parse().map_err(|_| bad(&format!("`{tag}` index"))))
        .collect()
}

fn parse_counted(line: &str, tag: &str) -> Result<usize, CacheDecodeError> {
    line.strip_prefix(tag)
        .and_then(|rest| rest.trim().parse().ok())
        .ok_or_else(|| bad(&format!("`{tag}` count")))
}

fn parse_witnesses(r: &mut Reader<'_>, tag: &str) -> Result<Vec<CachedWitness>, CacheDecodeError> {
    let count = parse_counted(r.line()?, &format!("{tag} "))?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let line = r.line()?;
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("w") {
            return Err(bad("witness line"));
        }
        let mut next_num = |what: &str| -> Result<u64, CacheDecodeError> {
            tokens
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| bad(what))
        };
        let signal = next_num("witness signal")? as u32;
        let width = next_num("witness width")? as u32;
        let limbs = next_num("witness limb count")? as usize;
        if width == 0 || limbs != (width as usize).div_ceil(64) {
            return Err(bad("witness limb count"));
        }
        let mut values = Vec::with_capacity(2 * limbs);
        for token in tokens {
            values.push(u64::from_str_radix(token, 16).map_err(|_| bad("witness limb"))?);
        }
        if values.len() != 2 * limbs {
            return Err(bad("witness limb count"));
        }
        let inst1 = values.split_off(limbs);
        out.push(CachedWitness {
            signal,
            width,
            inst0: values,
            inst1,
        });
    }
    Ok(out)
}

/// Verifies the trailing checksum line and returns the body it covers.
fn checked_body<'a>(text: &'a str, magic: &str) -> Result<&'a str, CacheDecodeError> {
    if !text.starts_with(magic) {
        return Err(bad("header"));
    }
    let trimmed = text
        .strip_suffix('\n')
        .ok_or_else(|| bad("trailing newline"))?;
    let sum_start = trimmed
        .rfind("\nsum ")
        .ok_or_else(|| bad("checksum line"))?
        + 1;
    let body = &text[..sum_start];
    let stored = trimmed[sum_start + 4..].trim();
    let digest = Digest::from_hex(stored).ok_or_else(|| bad("checksum digest"))?;
    if digest != entry_sum(body) {
        return Err(CacheDecodeError("checksum mismatch".into()));
    }
    Ok(body)
}

/// Decodes a check entry, verifying its checksum.
///
/// # Errors
///
/// Any structural defect — bad header, truncated blob, checksum mismatch —
/// is a [`CacheDecodeError`]; the caller treats it as a miss.
pub fn decode_check(text: &str) -> Result<CachedCheck, CacheDecodeError> {
    checked_body(text, MAGIC_CHECK)?;
    let mut r = Reader::new(text);
    r.line()?; // magic, already verified
    match r.line()? {
        "holds hinted" => {
            let cnf_len = parse_counted(r.line()?, "cnf ")?;
            let cnf = r.take(cnf_len)?.to_string();
            let proof_len = parse_counted(r.line()?, "hints ")?;
            let proof = r.take(proof_len)?.to_string();
            Ok(CachedCheck::HoldsHinted { cnf, proof })
        }
        "holds trivial" => Ok(CachedCheck::HoldsTrivial),
        "cex" => {
            let cex = CachedCex {
                divergent_state: parse_indices(r.line()?, "dstate")?,
                divergent_outputs: parse_indices(r.line()?, "douts")?,
                violated_cond_eqs: parse_indices(r.line()?, "dceq")?,
                state_values: parse_witnesses(&mut r, "sw")?,
                input_values_t: parse_witnesses(&mut r, "it")?,
                input_values_t1: parse_witnesses(&mut r, "it1")?,
            };
            Ok(CachedCheck::Cex(cex))
        }
        _ => Err(bad("verdict line")),
    }
}

/// Decodes a simulation entry, verifying its checksum.
///
/// # Errors
///
/// [`CacheDecodeError`] on any structural defect; treated as a miss.
pub fn decode_sim(text: &str) -> Result<CachedSim, CacheDecodeError> {
    checked_body(text, MAGIC_SIM)?;
    let mut r = Reader::new(text);
    r.line()?; // magic
    let cycles_run = parse_counted(r.line()?, "cycles ")? as u64;
    let viol_count = parse_counted(r.line()?, "viol ")?;
    let mut violations = Vec::with_capacity(viol_count);
    for _ in 0..viol_count {
        let line = r.line()?;
        let mut tokens = line.split_whitespace();
        if tokens.next() != Some("v") {
            return Err(bad("violation line"));
        }
        let output = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("violation output"))?;
        let cycle = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| bad("violation cycle"))?;
        violations.push((output, cycle));
    }
    let tainted_state = parse_indices(r.line()?, "tainted")?;
    let untainted_state = parse_indices(r.line()?, "untainted")?;
    let taint_count = parse_counted(r.line()?, "taintcycle ")?;
    let taint_line = r.line()?;
    let rest = taint_line
        .strip_prefix('t')
        .ok_or_else(|| bad("taint-cycle line"))?;
    let mut first_taint_cycle = Vec::with_capacity(taint_count);
    for token in rest.split_whitespace() {
        if token == "-" {
            first_taint_cycle.push(None);
        } else {
            first_taint_cycle.push(Some(token.parse().map_err(|_| bad("taint cycle"))?));
        }
    }
    if first_taint_cycle.len() != taint_count {
        return Err(bad("taint-cycle count"));
    }
    Ok(CachedSim {
        cycles_run,
        violations,
        tainted_state,
        untainted_state,
        first_taint_cycle,
    })
}

/// Decodes an invariant entry, verifying its checksum (and, recursively,
/// the embedded check entry's).
///
/// # Errors
///
/// [`CacheDecodeError`] on any structural defect; treated as a miss. The
/// clauses are *not* validated against any module here — the caller must
/// still run `is_well_formed` and the reset check.
pub fn decode_invariant(text: &str) -> Result<CachedInvariant, CacheDecodeError> {
    checked_body(text, MAGIC_INVARIANT)?;
    let mut r = Reader::new(text);
    r.line()?; // magic, already verified
    let clause_count = parse_counted(r.line()?, "clauses ")?;
    let mut clauses = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        let line = r.line()?;
        let rest = line.strip_prefix('c').ok_or_else(|| bad("clause line"))?;
        let tokens: Vec<&str> = rest.split_whitespace().collect();
        if tokens.is_empty() || !tokens.len().is_multiple_of(4) {
            return Err(bad("clause literal count"));
        }
        let mut lits = Vec::with_capacity(tokens.len() / 4);
        for quad in tokens.chunks_exact(4) {
            let num = |t: &str, what: &str| -> Result<u64, CacheDecodeError> {
                t.parse().map_err(|_| bad(what))
            };
            let inst = num(quad[1], "literal instance")? as usize;
            let sign = num(quad[3], "literal sign")?;
            if inst > 1 || sign > 1 {
                return Err(bad("literal field"));
            }
            lits.push(RelationalLit {
                reg: num(quad[0], "literal register")? as usize,
                inst,
                bit: num(quad[2], "literal bit")? as u32,
                positive: sign == 1,
            });
        }
        clauses.push(RelationalClause { lits });
    }
    let check_len = parse_counted(r.line()?, "check ")?;
    let check = decode_check(r.take(check_len)?)?;
    Ok(CachedInvariant { clauses, check })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::{canonical_form, ModuleBuilder};

    fn toy() -> Module {
        let mut b = ModuleBuilder::new("toy");
        let a = b.data_input("a", 8);
        let s = b.sig(a);
        let r = b.reg("r", 8, 0);
        b.set_next(r, s).expect("drive");
        let rs = b.sig(r);
        b.data_output("out", rs);
        let tick = b.reg("tick", 1, 0);
        let t = b.sig(tick);
        let nt = b.not(t);
        b.set_next(tick, nt).expect("drive");
        b.control_output("phase", t);
        b.build().expect("valid")
    }

    #[test]
    fn check_entries_round_trip_and_detect_tampering() {
        let hinted = CachedCheck::HoldsHinted {
            cnf: "p cnf 1 2\n1 0\n-1 0\n".into(),
            proof: "0 1 2 0\n".into(),
        };
        let text = encode_check(&hinted);
        assert_eq!(decode_check(&text).expect("round trip"), hinted);

        assert_eq!(
            decode_check(&encode_check(&CachedCheck::HoldsTrivial)).expect("round trip"),
            CachedCheck::HoldsTrivial
        );

        let cex = CachedCheck::Cex(CachedCex {
            divergent_state: vec![1],
            divergent_outputs: vec![],
            violated_cond_eqs: vec![0],
            state_values: vec![CachedWitness {
                signal: 1,
                width: 8,
                inst0: vec![0xab],
                inst1: vec![0xcd],
            }],
            input_values_t: vec![],
            input_values_t1: vec![],
        });
        let text = encode_check(&cex);
        assert_eq!(decode_check(&text).expect("round trip"), cex);

        // A flipped byte anywhere fails the checksum.
        let tampered = text.replace("0xab", "0xac").replace("ab", "ac");
        assert!(decode_check(&tampered).is_err());
        // Truncation is rejected.
        assert!(decode_check(&text[..text.len() / 2]).is_err());
        assert!(decode_check("").is_err());

        // A plain-DRUP `holds proof` body, as older stores hold, decodes
        // as a miss even with a valid checksum, so the check is re-proved.
        let mut plain = format!("{MAGIC_CHECK}\nholds proof\ncnf 14\np cnf 1 1\n1 0\ndrup 2\n0\n");
        let sum = entry_sum(&plain);
        plain.push_str(&format!("sum {}\n", sum.to_hex()));
        assert!(matches!(
            decode_check(&plain),
            Err(CacheDecodeError(m)) if m == "malformed verdict line"
        ));
    }

    #[test]
    fn invariant_entries_round_trip_and_detect_tampering() {
        let inv = CachedInvariant {
            clauses: vec![
                RelationalClause {
                    lits: vec![RelationalLit {
                        reg: 2,
                        inst: 0,
                        bit: 0,
                        positive: false,
                    }],
                },
                RelationalClause {
                    lits: vec![
                        RelationalLit {
                            reg: 0,
                            inst: 0,
                            bit: 3,
                            positive: true,
                        },
                        RelationalLit {
                            reg: 0,
                            inst: 1,
                            bit: 3,
                            positive: false,
                        },
                    ],
                },
            ],
            check: CachedCheck::HoldsHinted {
                cnf: "p cnf 1 2\n1 0\n-1 0\n".into(),
                proof: "0 1 2 0\n".into(),
            },
        };
        let text = encode_invariant(&inv);
        assert_eq!(decode_invariant(&text).expect("round trip"), inv);

        // A flipped byte fails the outer checksum.
        let tampered = text.replacen("c 2 0 0 0", "c 2 0 1 0", 1);
        assert!(decode_invariant(&tampered).is_err());
        // Truncation and garbage are rejected.
        assert!(decode_invariant(&text[..text.len() / 2]).is_err());
        assert!(decode_invariant("").is_err());
        // An out-of-range instance is structurally rejected even with a
        // valid checksum, before any module validation.
        let bad_inst = encode_invariant(&CachedInvariant {
            clauses: vec![RelationalClause {
                lits: vec![RelationalLit {
                    reg: 0,
                    inst: 2,
                    bit: 0,
                    positive: false,
                }],
            }],
            check: CachedCheck::HoldsTrivial,
        });
        assert!(decode_invariant(&bad_inst).is_err());
    }

    #[test]
    fn sim_entries_round_trip() {
        let sim = CachedSim {
            cycles_run: 812,
            violations: vec![(4, 130)],
            tainted_state: vec![1],
            untainted_state: vec![3],
            first_taint_cycle: vec![None, Some(0), None, None, Some(129)],
        };
        let text = encode_sim(&sim);
        assert_eq!(decode_sim(&text).expect("round trip"), sim);
        let tampered = text.replace("130", "131");
        assert!(decode_sim(&tampered).is_err());
    }

    #[test]
    fn cex_validation_rejects_foreign_layouts() {
        let m = toy();
        let r = m.signal_by_name("r").expect("r").index() as u32;
        let a = m.signal_by_name("a").expect("a").index() as u32;
        let witness = |signal: u32, width: u32| CachedWitness {
            signal,
            width,
            inst0: vec![1],
            inst1: vec![2],
        };
        let good = CachedCex {
            divergent_state: vec![r],
            state_values: vec![witness(r, 8)],
            ..CachedCex::default()
        };
        let cex = good.to_counterexample(&m).expect("valid");
        assert_eq!(cex.state_values[0].inst0.to_u64(), 1);
        // Out-of-range index.
        let bad_index = CachedCex {
            divergent_state: vec![99],
            ..CachedCex::default()
        };
        assert!(bad_index.to_counterexample(&m).is_none());
        // Width mismatch (register is 8 bits, claim 4).
        let bad_width = CachedCex {
            state_values: vec![witness(r, 4)],
            ..CachedCex::default()
        };
        assert!(bad_width.to_counterexample(&m).is_none());
        // Kind mismatch: `a` is an input, not a register.
        let bad_kind = CachedCex {
            state_values: vec![witness(a, 8)],
            ..CachedCex::default()
        };
        assert!(bad_kind.to_counterexample(&m).is_none());
    }

    #[test]
    fn sim_validation_requires_dense_vector_length() {
        let m = toy();
        let mut sim = CachedSim {
            first_taint_cycle: vec![None; m.signal_count()],
            ..CachedSim::default()
        };
        assert!(sim.to_report(&m).is_some());
        sim.first_taint_cycle.pop();
        assert!(sim.to_report(&m).is_none());
    }

    #[test]
    fn check_keys_are_canonical_and_sensitive() {
        let m = toy();
        let canon = canonical_form(&m);
        let r = m.signal_by_name("r").expect("r");
        let tick = m.signal_by_name("tick").expect("tick");
        let z_a = [r, tick];
        let z_b = [tick, r];
        // Z' is a set: index order must not matter.
        assert_eq!(
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &z_a,
                &[],
                &[],
                &[]
            ),
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &z_b,
                &[],
                &[],
                &[]
            )
        );
        // Kind, Z' membership, and spec all matter.
        let base = check_key(
            &canon,
            CheckKind::Full,
            UpecEncoding::Bits,
            &z_a,
            &[],
            &[],
            &[],
        );
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::StateOnly,
                UpecEncoding::Bits,
                &z_a,
                &[],
                &[],
                &[]
            )
        );
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &[r],
                &[],
                &[],
                &[]
            )
        );
        let some_expr = m.driver(tick).expect("driven");
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &z_a,
                &[some_expr],
                &[],
                &[]
            )
        );
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &z_a,
                &[],
                &[some_expr],
                &[]
            )
        );
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Bits,
                &z_a,
                &[],
                &[],
                &[(some_expr, r)]
            )
        );
        // The SAT encoding shapes any cached counterexample witness, so
        // bits- and words-mode checks must never share a cache slot.
        assert_ne!(
            base,
            check_key(
                &canon,
                CheckKind::Full,
                UpecEncoding::Words,
                &z_a,
                &[],
                &[],
                &[]
            )
        );
    }

    #[test]
    fn memory_cache_stores_and_reports_usage() {
        let cache = MemoryCache::new();
        let key = Digest([1, 2]);
        assert!(cache.load(CacheKind::Check, &key).is_none());
        cache.store(CacheKind::Check, &key, "hello");
        assert_eq!(cache.load(CacheKind::Check, &key).as_deref(), Some("hello"));
        // Namespaces are distinct.
        assert!(cache.load(CacheKind::Sim, &key).is_none());
        assert_eq!(cache.usage().bytes, 5);
    }
}
