//! GEMM kernel selection, in one place: the host's CPU features, probed
//! once, and the active `(Isa, Precision)` pair, resolved together.
//!
//! The paper builds each fused kernel once per architecture and precision
//! (CUTLASS per SM, §III.C's `__half2` path). Here two knobs choose at run
//! time, each with a strict setter for tests and benches: `BYTE_GEMM_ISA`
//! (`scalar|avx2|avx512|auto`, default `auto`) picks the f32 tier — the
//! [`MicroKernel`] and its skinny strip kernels, which the grouped engine
//! and attention run too — and `BYTE_GEMM_PREC` (`f32|f16|int8`, default
//! `f32`) the dense GEMMs' panel format, a [`LowpKernel`] below f32. An
//! unknown value panics with the accepted set.
//!
//! **One rule resolves the pair** ([`resolve`], pure over a [`Host`]): each
//! axis runs the widest implementation the host has ([`Host::supports`])
//! not above its request — `auto` asks for the widest f32 tier, the
//! precision for the f32 tier selected — and a selection below its request
//! warns once ([`bt_obs::warn_once`]), naming the precision, the request and
//! the substitutes. So an AVX-512 host without AVX512-FP16 runs f16 dense
//! GEMMs on the avx2 `LowpKernel` and stays avx512 for f32.
//!
//! The result is one byte: every launch reads it with one load ([`active`])
//! and resolves nothing. No other module of `crates/*/src` probes the CPU
//! (`scripts/check.sh` holds that); the packers read [`host`].

use crate::isa::{self, Isa};
use crate::lowp::{self, LowpKernel};
use crate::micro::MicroKernel;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Once, OnceLock};

/// Storage precisions of the dense GEMMs' packed panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// Full f32 panels — the [`MicroKernel`] family.
    F32,
    /// IEEE binary16 panels, round-to-nearest-even conversion at pack time.
    F16,
    /// Symmetric per-row/per-column int8 quantization, exact i32 dots.
    Int8,
}

impl Precision {
    /// Every precision, widest storage first.
    pub const ALL: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    /// Canonical lowercase name (the `BYTE_GEMM_PREC` spelling).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Bytes per packed panel element (the byte-traffic lever: 4/2/1).
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a knob value (case-insensitive, surrounding whitespace ignored)
/// against its accepted set; the error names the value and the set.
fn parse<T: Copy>(knob: &str, s: &str, accepted: &[(&str, T)]) -> Result<T, String> {
    let key = s.trim().to_ascii_lowercase();
    if let Some(&(_, v)) = accepted.iter().find(|(name, _)| *name == key) {
        return Ok(v);
    }
    let names: Vec<String> = accepted.iter().map(|(name, _)| format!("`{name}`")).collect();
    Err(format!(
        "{knob}: unknown value `{s}` (expected one of {})",
        names.join(", ")
    ))
}

/// Parses a `BYTE_GEMM_ISA` value: a tier, or `None` for `auto`.
///
/// # Errors
/// On an unknown value (what the first selection panics with).
pub fn parse_isa_request(s: &str) -> Result<Option<Isa>, String> {
    let [scalar, avx2, avx512] = Isa::ALL.map(|i| (i.name(), Some(i)));
    parse("BYTE_GEMM_ISA", s, &[scalar, avx2, avx512, ("auto", None)])
}

/// Parses a `BYTE_GEMM_PREC` value.
///
/// # Errors
/// On an unknown value (what the first selection panics with).
pub fn parse_prec_request(s: &str) -> Result<Precision, String> {
    parse("BYTE_GEMM_PREC", s, &Precision::ALL.map(|p| (p.name(), p)))
}

/// The CPU features the kernel family needs. [`host`] is this machine's,
/// probed once; tests build synthetic ones to exercise [`resolve`].
#[allow(missing_docs)] // each field is the feature it is named after
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Host {
    pub avx2: bool,
    pub fma: bool,
    pub f16c: bool,
    pub avx512f: bool,
    pub avx512bw: bool,
    pub avx512vnni: bool,
    pub avx512fp16: bool,
}

impl Host {
    /// Whether this host runs the `prec` implementation at tier `isa`.
    pub fn supports(self, prec: Precision, isa: Isa) -> bool {
        match (isa, prec) {
            (Isa::Scalar, _) => true,
            (Isa::Avx2, Precision::F32) => self.avx2 && self.fma,
            (Isa::Avx2, Precision::F16) => self.avx2 && self.fma && self.f16c,
            (Isa::Avx2, Precision::Int8) => self.avx2,
            (Isa::Avx512, Precision::F32) => self.avx512f,
            (Isa::Avx512, Precision::F16) => self.avx512f && self.avx512fp16,
            (Isa::Avx512, Precision::Int8) => self.avx512f && self.avx512bw && self.avx512vnni,
        }
    }

    /// The strict form of a tier request, what [`set_active_isa`] checks.
    ///
    /// # Errors
    /// Returns a message naming `isa` when this host lacks it.
    pub fn require(self, isa: Isa) -> Result<(), String> {
        let err = || format!("ISA tier `{isa}` is not supported on this host");
        self.supports(Precision::F32, isa).then_some(()).ok_or_else(err)
    }

    fn probe() -> Self {
        #[cfg(target_arch = "x86_64")]
        return Host {
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
            f16c: is_x86_feature_detected!("f16c"),
            avx512f: is_x86_feature_detected!("avx512f"),
            avx512bw: is_x86_feature_detected!("avx512bw"),
            avx512vnni: is_x86_feature_detected!("avx512vnni"),
            avx512fp16: is_x86_feature_detected!("avx512fp16"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        Host::default()
    }
}

/// This machine's features, probed on first use.
pub fn host() -> Host {
    static HOST: OnceLock<Host> = OnceLock::new();
    *HOST.get_or_init(Host::probe)
}

/// The f32 tiers this host runs, poorest to widest. Always contains
/// [`Isa::Scalar`].
pub fn available_isas() -> Vec<Isa> {
    Isa::ALL
        .into_iter()
        .filter(|&i| host().supports(Precision::F32, i))
        .collect()
}

/// A resolved selection (tiers only, so [`resolve`] stays pure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The f32 tier: register tiles, strip kernels, grouped engine, attention.
    pub isa: Isa,
    /// The dense GEMMs' panel precision.
    pub prec: Precision,
    /// The tier of the dense GEMMs' `prec` implementation (`isa` at f32).
    pub prec_isa: Isa,
}

impl Selection {
    /// Two bits per field: the byte [`active`] loads.
    fn code(self) -> u8 {
        self.isa as u8 | (self.prec as u8) << 2 | (self.prec_isa as u8) << 4
    }

    fn from_code(code: u8) -> Self {
        Selection {
            isa: Isa::ALL[usize::from(code & 3)],
            prec: Precision::ALL[usize::from(code >> 2 & 3)],
            prec_isa: Isa::ALL[usize::from(code >> 4 & 3)],
        }
    }
}

/// Resolves a request — an f32 tier (`None`: `auto`) and a precision —
/// on `host` by the one rule (module doc), with the warning a selection
/// below its request emits.
pub fn resolve(request: Option<Isa>, prec: Precision, host: Host) -> (Selection, Option<String>) {
    let widest = |prec, at_most| {
        Isa::ALL
            .into_iter()
            .rev()
            .find(|&i| i <= at_most && host.supports(prec, i))
            .unwrap_or(Isa::Scalar)
    };
    let asked = request.unwrap_or_else(|| widest(Precision::F32, Isa::Avx512));
    let isa = widest(Precision::F32, asked);
    let prec_isa = widest(prec, isa);
    let warning = (isa < asked || prec_isa < isa).then(|| {
        let runs = match prec {
            Precision::F32 => format!("running f32 on `{isa}`"),
            _ => format!("running f32 on `{isa}` and {prec} on `{prec_isa}`"),
        };
        format!("no {prec} implementation at ISA tier `{asked}` on this host; {runs}")
    });
    (Selection { isa, prec, prec_isa }, warning)
}

/// What a launch runs, read once at its entry through [`active`].
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// The f32 tier's microkernel; its strip family drives the skinny GEMMs.
    pub micro: &'static MicroKernel,
    /// The dense GEMMs' kernel below f32; `None` at f32.
    pub lowp: Option<&'static LowpKernel>,
}

/// The active selection's code, or `UNSET` before the first read.
static ACTIVE: AtomicU8 = AtomicU8::new(UNSET);
static ENV_INIT: Once = Once::new();
const UNSET: u8 = u8::MAX;

/// Emits a degraded selection's warning, once per request.
fn warn(request: Option<Isa>, prec: Precision, warning: &str) {
    let key = format!("bt-gemm.dispatch.{}.{prec}", request.map_or("auto", Isa::name));
    bt_obs::warn_once(&key, &format!("bt-gemm: {warning}"));
}

/// The active selection; the first read resolves the two knobs (and panics
/// on an unknown value).
fn selection() -> Selection {
    let code = ACTIVE.load(Ordering::Acquire);
    if code != UNSET {
        return Selection::from_code(code);
    }
    ENV_INIT.call_once(|| {
        let request = std::env::var("BYTE_GEMM_ISA").map_or(Ok(None), |s| parse_isa_request(&s));
        let prec = std::env::var("BYTE_GEMM_PREC").map_or(Ok(Precision::F32), |s| parse_prec_request(&s));
        let (request, prec) = request.and_then(|r| Ok((r, prec?))).unwrap_or_else(|e| panic!("{e}"));
        let (selection, warning) = resolve(request, prec, host());
        ACTIVE.store(selection.code(), Ordering::Release);
        if let Some(w) = warning {
            warn(request, prec, &w);
        }
    });
    Selection::from_code(ACTIVE.load(Ordering::Acquire))
}

/// Re-resolves the active selection with one axis replaced, atomically
/// against a concurrent change of the other.
fn reselect(change: impl Fn(Selection) -> (Isa, Precision)) {
    selection(); // the knobs first: a setter overrides one axis, not both
    let mut last = None;
    let _ = ACTIVE.fetch_update(Ordering::AcqRel, Ordering::Acquire, |code| {
        let (isa, prec) = change(Selection::from_code(code));
        let (selection, warning) = resolve(Some(isa), prec, host());
        last = Some((isa, prec, warning));
        Some(selection.code())
    });
    if let Some((isa, prec, Some(w))) = last {
        warn(Some(isa), prec, &w);
    }
}

/// The kernels of the active selection — one load. Every GEMM and
/// attention launch reads this once at entry.
pub fn active() -> Kernels {
    let s = selection();
    Kernels {
        micro: isa::tier_kernel(s.isa),
        lowp: lowp::implementation(s.prec, s.prec_isa),
    }
}

/// The active f32 tier.
pub fn active_isa() -> Isa {
    selection().isa
}

/// The active dense-GEMM precision (default `f32`).
pub fn active_precision() -> Precision {
    selection().prec
}

/// Pins the f32 tier (tests and benches walk the tiers with it); the
/// precision re-resolves against it.
///
/// # Errors
/// Strict, unlike the knob: a tier the host lacks ([`Host::require`]).
pub fn set_active_isa(isa: Isa) -> Result<(), String> {
    host().require(isa)?;
    reselect(|s| (isa, s.prec));
    Ok(())
}

/// Pins the dense GEMMs' precision, resolved against the active f32 tier
/// (every precision has a scalar implementation).
pub fn set_active_precision(prec: Precision) {
    reselect(|s| (s.isa, prec));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_round_trips_through_its_byte() {
        for isa in Isa::ALL {
            for prec in Precision::ALL {
                for prec_isa in Isa::ALL {
                    let s = Selection { isa, prec, prec_isa };
                    assert_ne!(s.code(), UNSET);
                    assert_eq!(Selection::from_code(s.code()), s);
                }
            }
        }
    }

    #[test]
    fn parse_prec_accepts_all_spellings() {
        for p in Precision::ALL {
            assert_eq!(parse_prec_request(p.name()), Ok(p));
            assert_eq!(parse_prec_request(&format!("  {}  ", p.name().to_uppercase())), Ok(p));
        }
    }

    #[test]
    fn parse_prec_rejects_unknown_with_accepted_set() {
        let err = parse_prec_request("fp8").unwrap_err();
        assert!(err.contains("fp8"));
        for p in Precision::ALL {
            assert!(err.contains(p.name()), "error must list `{}`: {err}", p.name());
        }
    }

    #[test]
    fn elem_bytes_shrink_monotonically() {
        assert_eq!(
            Precision::ALL.map(Precision::elem_bytes),
            [4, 2, 1],
            "precision axis exists to shrink panel bytes"
        );
    }

    #[test]
    fn active_kernels_run_on_this_host() {
        let k = active();
        assert!(available_isas().contains(&k.micro.isa));
        if let Some(l) = k.lowp {
            assert!(host().supports(l.prec, l.isa) && l.isa <= k.micro.isa);
        }
    }

    #[test]
    fn a_degraded_selection_warns_once() {
        let (_, w) = resolve(Some(Isa::Avx512), Precision::F32, Host::default());
        let w = w.expect("a scalar-only host degrades an avx512 request");
        assert!(w.contains("avx512") && w.contains("scalar"), "{w}");
        warn(Some(Isa::Avx512), Precision::F32, &w);
        warn(Some(Isa::Avx512), Precision::F32, &w);
        let captured: Vec<_> = bt_obs::warnings()
            .into_iter()
            .filter(|(k, _)| k == "bt-gemm.dispatch.avx512.f32")
            .collect();
        assert_eq!(captured.len(), 1, "warn_once must dedupe by request");
        assert_eq!(captured[0].1, format!("bt-gemm: {w}"));
    }
}
