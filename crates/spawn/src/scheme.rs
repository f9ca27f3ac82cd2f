//! The [`SpawnScheme`] trait and registry: spawning policies as first-class,
//! enumerable units.
//!
//! The paper's contribution is a *comparison of spawning schemes* — the
//! profile-based SP→CQIP selection against construct-based baselines — so
//! the policies themselves are the natural unit of extension. Every selector
//! family in this crate is wrapped in an object-safe [`SpawnScheme`]
//! implementation and registered by name in a [`SchemeRegistry`], so
//! experiments, tests and tools can address policies uniformly ("run
//! `profile` vs `loop-iteration` on this trace") and new policies plug in
//! without touching the harness.
//!
//! # Examples
//!
//! Run two built-in schemes on the same trace:
//!
//! ```
//! use specmt_trace::Trace;
//! use specmt_workloads::{ijpeg, Scale};
//! use specmt_spawn::{SchemeParams, SchemeRegistry};
//!
//! let w = ijpeg(Scale::Small);
//! let trace = Trace::generate(w.program.clone(), w.step_budget)?;
//! let registry = SchemeRegistry::builtin();
//! let params = SchemeParams::default();
//! let profile = registry.select("profile", &trace, &params)?;
//! let heur = registry.select("heuristics", &trace, &params)?;
//! assert!(profile.num_pairs() > 0);
//! assert!(heur.num_pairs() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Register a custom scheme (see `examples/policy_faceoff.rs` for a full
//! demonstration):
//!
//! ```
//! use specmt_spawn::{SchemeError, SchemeParams, SchemeRegistry, SpawnScheme, SpawnTable};
//! use specmt_trace::Trace;
//!
//! #[derive(Debug)]
//! struct NoSpawn;
//!
//! impl SpawnScheme for NoSpawn {
//!     fn name(&self) -> &str {
//!         "no-spawn"
//!     }
//!     fn describe(&self) -> String {
//!         "never spawns (sequential control)".into()
//!     }
//!     fn select(&self, _: &Trace, _: &SchemeParams) -> Result<SpawnTable, SchemeError> {
//!         Ok(SpawnTable::empty())
//!     }
//! }
//!
//! let mut registry = SchemeRegistry::builtin();
//! registry.register(Box::new(NoSpawn))?;
//! assert!(registry.get("no-spawn").is_some());
//! # Ok::<(), specmt_spawn::SchemeError>(())
//! ```

use specmt_store::{Fingerprint, FingerprintHasher};
use specmt_trace::Trace;

use crate::adaptive::{
    ConfGatedScheme, ScoreboardScheme, DEFAULT_CONFIDENCE_THRESHOLD, DEFAULT_DEMOTE_THRESHOLD,
};
use crate::{
    heuristic_pairs, memslice_pairs, profile_pairs, return_pairs, HeuristicSet, OrderCriterion,
    ProfileConfig, SpawnTable,
};

/// Parameters shared by every scheme's [`SpawnScheme::select`] call.
///
/// A scheme reads only the fields it understands: the profile family uses
/// [`ProfileConfig`] (each criterion variant overrides its `criterion`
/// field), the return-pair scheme reuses the profile minimum distance as
/// its size constraint, and MEM-slicing and the heuristics take no
/// parameters. Custom schemes may interpret the fields however they like.
#[derive(Debug, Clone, Default)]
pub struct SchemeParams {
    /// Configuration of the profile-based family (§3.1).
    pub profile: ProfileConfig,
}

impl Fingerprint for SchemeParams {
    fn fingerprint(&self, h: &mut FingerprintHasher) {
        h.struct_tag("SchemeParams");
        self.profile.fingerprint(h);
    }
}

/// Errors from scheme resolution and selection.
#[derive(Debug)]
#[non_exhaustive]
pub enum SchemeError {
    /// The requested scheme name is not registered.
    UnknownScheme {
        /// The unresolved name.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// A scheme with this name is already registered.
    DuplicateScheme {
        /// The conflicting name.
        name: String,
    },
    /// A scheme failed to produce a table (built-ins never do; the variant
    /// exists for custom [`SpawnScheme`] implementations).
    SelectionFailed {
        /// The failing scheme's name.
        scheme: String,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for SchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemeError::UnknownScheme { name, known } => {
                write!(f, "unknown scheme `{name}` (known: {})", known.join(", "))
            }
            SchemeError::DuplicateScheme { name } => {
                write!(f, "scheme `{name}` is already registered")
            }
            SchemeError::SelectionFailed { scheme, message } => {
                write!(f, "scheme `{scheme}` failed: {message}")
            }
        }
    }
}

impl std::error::Error for SchemeError {}

/// A thread-spawning policy: given a profile trace, produce the
/// [`SpawnTable`] the simulator runs with.
///
/// The trait is object-safe — registries hold `Box<dyn SpawnScheme>` — and
/// implementations must be `Send + Sync` so one registry can serve the
/// parallel experiment runner.
pub trait SpawnScheme: Send + Sync + std::fmt::Debug {
    /// The scheme's registry name (stable, kebab-case).
    fn name(&self) -> &str;

    /// A one-line human description.
    fn describe(&self) -> String;

    /// Selects the spawning pairs for `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::SelectionFailed`] if the scheme cannot produce
    /// a table (built-in schemes are infallible).
    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError>;

    /// A stable identity string for content-addressed caching of this
    /// scheme's tables, or `None` if tables must never be cached.
    ///
    /// `None` — the default — is the safe answer: the store cannot see a
    /// custom scheme's internal state, so caching is strictly opt-in. A
    /// scheme that returns `Some(id)` promises that `select` is a pure
    /// function of `(trace, params, id)`; change the string (e.g. a `/v2`
    /// suffix) whenever selection semantics change.
    fn cache_identity(&self) -> Option<String> {
        None
    }
}

/// The profile-based family (§3.1), one instance per CQIP ordering
/// criterion.
#[derive(Debug, Clone, Copy)]
struct ProfileScheme {
    criterion: OrderCriterion,
}

impl SpawnScheme for ProfileScheme {
    fn name(&self) -> &str {
        match self.criterion {
            OrderCriterion::MaxDistance => "profile",
            OrderCriterion::Independent => "profile-independent",
            OrderCriterion::Predictable => "profile-predictable",
        }
    }

    fn describe(&self) -> String {
        let criterion = match self.criterion {
            OrderCriterion::MaxDistance => "maximum expected SP->CQIP distance",
            OrderCriterion::Independent => "most independent thread instructions",
            OrderCriterion::Predictable => "most independent-or-predictable thread instructions",
        };
        format!("profile-based pair selection (criterion: {criterion})")
    }

    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        let config = ProfileConfig {
            criterion: self.criterion,
            ..params.profile.clone()
        };
        Ok(profile_pairs(trace, &config).table)
    }

    fn cache_identity(&self) -> Option<String> {
        Some(format!("builtin/{}", self.name()))
    }
}

/// The construct-based heuristics, individually and combined.
#[derive(Debug, Clone, Copy)]
struct HeuristicScheme {
    name: &'static str,
    describe: &'static str,
    set: HeuristicSet,
}

impl SpawnScheme for HeuristicScheme {
    fn name(&self) -> &str {
        self.name
    }

    fn describe(&self) -> String {
        self.describe.into()
    }

    fn select(&self, trace: &Trace, _: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        Ok(heuristic_pairs(trace.program(), self.set))
    }

    // The heuristic set is a pure function of the scheme name, so the name
    // alone identifies selection.
    fn cache_identity(&self) -> Option<String> {
        Some(format!("builtin/{}", self.name))
    }
}

/// The MEM-slicing baseline (Codrescu & Wills).
#[derive(Debug, Clone, Copy)]
struct MemSliceScheme;

impl SpawnScheme for MemSliceScheme {
    fn name(&self) -> &str {
        "memslice"
    }

    fn describe(&self) -> String {
        "MEM-slicing: recurring memory instructions anchor fixed-size slices".into()
    }

    fn select(&self, trace: &Trace, _: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        Ok(memslice_pairs(trace))
    }

    fn cache_identity(&self) -> Option<String> {
        Some("builtin/memslice".to_owned())
    }
}

/// Call→return-point pairs alone (§3.1's final injection step as a
/// standalone policy).
#[derive(Debug, Clone, Copy)]
struct ReturnPairScheme;

impl SpawnScheme for ReturnPairScheme {
    fn name(&self) -> &str {
        "return-pairs"
    }

    fn describe(&self) -> String {
        "call->return-point pairs meeting the minimum size constraint".into()
    }

    fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
        let (pairs, _) = return_pairs(trace, params.profile.min_distance);
        Ok(SpawnTable::from_pairs(pairs))
    }

    fn cache_identity(&self) -> Option<String> {
        Some("builtin/return-pairs".to_owned())
    }
}

/// A named collection of spawning schemes.
///
/// [`SchemeRegistry::builtin`] holds every policy this crate implements;
/// [`SchemeRegistry::register`] adds custom ones. Lookup is by exact name.
#[derive(Debug, Default)]
pub struct SchemeRegistry {
    schemes: Vec<Box<dyn SpawnScheme>>,
}

/// Names of the built-in schemes, in registry order.
pub const BUILTIN_SCHEME_NAMES: [&str; 11] = [
    "profile",
    "profile-independent",
    "profile-predictable",
    "heuristics",
    "loop-iteration",
    "loop-continuation",
    "subroutine-continuation",
    "memslice",
    "return-pairs",
    "scoreboard",
    "conf-gated",
];

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> SchemeRegistry {
        SchemeRegistry::default()
    }

    /// Every built-in scheme: the three profile criteria, the four
    /// construct-heuristic combinations, MEM-slicing, standalone return
    /// pairs, and the two adaptive wrappers over the profile scheme
    /// (names in [`BUILTIN_SCHEME_NAMES`]).
    pub fn builtin() -> SchemeRegistry {
        // The names are distinct by construction (a unit test checks), so
        // the list is taken whole rather than through `register`.
        let schemes: Vec<Box<dyn SpawnScheme>> = vec![
            Box::new(ProfileScheme {
                criterion: OrderCriterion::MaxDistance,
            }),
            Box::new(ProfileScheme {
                criterion: OrderCriterion::Independent,
            }),
            Box::new(ProfileScheme {
                criterion: OrderCriterion::Predictable,
            }),
            Box::new(HeuristicScheme {
                name: "heuristics",
                describe: "all three construct heuristics combined (the Figure 8 baseline)",
                set: HeuristicSet::all(),
            }),
            Box::new(HeuristicScheme {
                name: "loop-iteration",
                describe: "loop heads spawn their next iteration",
                set: HeuristicSet::loop_iteration_only(),
            }),
            Box::new(HeuristicScheme {
                name: "loop-continuation",
                describe: "loop heads spawn the code after the loop",
                set: HeuristicSet::loop_continuation_only(),
            }),
            Box::new(HeuristicScheme {
                name: "subroutine-continuation",
                describe: "calls spawn their return points",
                set: HeuristicSet::subroutine_continuation_only(),
            }),
            Box::new(MemSliceScheme),
            Box::new(ReturnPairScheme),
            Box::new(ScoreboardScheme::new(
                Box::new(ProfileScheme {
                    criterion: OrderCriterion::MaxDistance,
                }),
                DEFAULT_DEMOTE_THRESHOLD,
            )),
            Box::new(ConfGatedScheme::new(
                Box::new(ProfileScheme {
                    criterion: OrderCriterion::MaxDistance,
                }),
                DEFAULT_CONFIDENCE_THRESHOLD,
            )),
        ];
        SchemeRegistry { schemes }
    }

    /// Registers a scheme.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::DuplicateScheme`] if the name is taken.
    pub fn register(&mut self, scheme: Box<dyn SpawnScheme>) -> Result<(), SchemeError> {
        if self.get(scheme.name()).is_some() {
            return Err(SchemeError::DuplicateScheme {
                name: scheme.name().to_owned(),
            });
        }
        self.schemes.push(scheme);
        Ok(())
    }

    /// Looks a scheme up by exact name.
    pub fn get(&self, name: &str) -> Option<&dyn SpawnScheme> {
        self.schemes
            .iter()
            .find(|s| s.name() == name)
            .map(Box::as_ref)
    }

    /// Looks a scheme up by exact name, naming every registered scheme
    /// in the error when it is missing.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::UnknownScheme`] for an unregistered name.
    pub fn resolve(&self, name: &str) -> Result<&dyn SpawnScheme, SchemeError> {
        self.get(name).ok_or_else(|| SchemeError::UnknownScheme {
            name: name.to_owned(),
            // Sorted so the suggestion list is deterministic regardless of
            // registration order.
            known: {
                let mut known: Vec<String> = self.names().iter().map(|&n| n.to_owned()).collect();
                known.sort_unstable();
                known
            },
        })
    }

    /// Resolves `name` and runs its selection on `trace`.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::UnknownScheme`] for an unregistered name, or
    /// the scheme's own failure.
    pub fn select(
        &self,
        name: &str,
        trace: &Trace,
        params: &SchemeParams,
    ) -> Result<SpawnTable, SchemeError> {
        self.resolve(name)?.select(trace, params)
    }

    /// Every registered name, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.schemes.iter().map(|s| s.name()).collect()
    }

    /// Iterates over the registered schemes in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn SpawnScheme> + '_ {
        self.schemes.iter().map(Box::as_ref)
    }

    /// Number of registered schemes.
    pub fn len(&self) -> usize {
        self.schemes.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.schemes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specmt_isa::{ProgramBuilder, Reg};

    fn loop_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 100);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 3);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        for _ in 0..20 {
            b.ld(Reg::R4, Reg::R3, 0);
            b.st(Reg::R4, Reg::R3, 0);
        }
        b.call("leaf");
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        b.begin_func("leaf");
        for _ in 0..40 {
            b.nop();
        }
        b.ret();
        b.end_func();
        Trace::generate(b.build().unwrap(), 1_000_000).unwrap()
    }

    #[test]
    fn builtin_registry_matches_published_names() {
        let r = SchemeRegistry::builtin();
        assert_eq!(r.names(), BUILTIN_SCHEME_NAMES);
        assert_eq!(r.len(), BUILTIN_SCHEME_NAMES.len());
        for name in BUILTIN_SCHEME_NAMES {
            let s = r.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.name(), name);
            assert!(!s.describe().is_empty());
        }
    }

    #[test]
    fn builtin_names_are_unique() {
        let r = SchemeRegistry::builtin();
        let mut names = r.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.len());
    }

    #[test]
    fn builtin_schemes_match_direct_selectors() {
        let trace = loop_trace();
        let r = SchemeRegistry::builtin();
        let params = SchemeParams::default();

        let via_registry = r.select("profile", &trace, &params).unwrap();
        let direct = profile_pairs(&trace, &ProfileConfig::default()).table;
        assert_eq!(via_registry, direct);

        let via_registry = r.select("heuristics", &trace, &params).unwrap();
        let direct = heuristic_pairs(trace.program(), HeuristicSet::all());
        assert_eq!(via_registry, direct);

        let via_registry = r.select("memslice", &trace, &params).unwrap();
        let direct = memslice_pairs(&trace);
        assert_eq!(via_registry, direct);

        let via_registry = r.select("return-pairs", &trace, &params).unwrap();
        let direct = SpawnTable::from_pairs(return_pairs(&trace, params.profile.min_distance).0);
        assert_eq!(via_registry, direct);
    }

    #[test]
    fn params_flow_through_selection() {
        let trace = loop_trace();
        let r = SchemeRegistry::builtin();
        let strict = SchemeParams {
            profile: ProfileConfig {
                min_prob: 0.999_999,
                ..ProfileConfig::default()
            },
        };
        let lax = SchemeParams::default();
        let t_strict = r.select("profile", &trace, &strict).unwrap();
        let t_lax = r.select("profile", &trace, &lax).unwrap();
        assert!(t_strict.num_pairs() <= t_lax.num_pairs());
    }

    #[test]
    fn unknown_scheme_lists_known_names() {
        let r = SchemeRegistry::builtin();
        let err = r
            .select("does-not-exist", &loop_trace(), &SchemeParams::default())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("does-not-exist"), "{msg}");
        assert!(msg.contains("profile"), "{msg}");
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = SchemeRegistry::builtin();
        let err = r.register(Box::new(MemSliceScheme)).unwrap_err();
        assert!(matches!(err, SchemeError::DuplicateScheme { .. }));
        assert_eq!(r.len(), BUILTIN_SCHEME_NAMES.len());
    }

    #[derive(Debug)]
    struct Everything;

    impl SpawnScheme for Everything {
        fn name(&self) -> &str {
            "everything"
        }
        fn describe(&self) -> String {
            "merges every built-in table".into()
        }
        fn select(&self, trace: &Trace, params: &SchemeParams) -> Result<SpawnTable, SchemeError> {
            let r = SchemeRegistry::builtin();
            let mut merged = SpawnTable::empty();
            for s in r.iter() {
                merged = merged.merged(s.select(trace, params)?);
            }
            Ok(merged)
        }
    }

    #[test]
    fn builtins_are_cacheable_custom_schemes_are_not() {
        let r = SchemeRegistry::builtin();
        for s in r.iter() {
            // Adaptive wrappers embed their gate threshold and their base's
            // identity; the offline builtins are identified by name alone.
            let want = match s.name() {
                "scoreboard" => {
                    format!("scoreboard[t={DEFAULT_DEMOTE_THRESHOLD}]/builtin/profile")
                }
                "conf-gated" => {
                    format!("conf-gated[t={DEFAULT_CONFIDENCE_THRESHOLD}]/builtin/profile")
                }
                name => format!("builtin/{name}"),
            };
            assert_eq!(s.cache_identity().as_deref(), Some(want.as_str()));
        }
        // Custom schemes default to uncacheable: the store cannot see
        // their internal state.
        assert_eq!(Everything.cache_identity(), None);
        // And an adaptive wrapper over an uncacheable base is itself
        // uncacheable — the wrapper cannot out-promise its base.
        assert_eq!(
            ScoreboardScheme::new(Box::new(Everything), 2).cache_identity(),
            None
        );
    }

    #[test]
    fn unknown_scheme_suggestions_are_sorted() {
        let r = SchemeRegistry::builtin();
        let err = r
            .select("nope", &loop_trace(), &SchemeParams::default())
            .unwrap_err();
        let SchemeError::UnknownScheme { known, .. } = err else {
            panic!("wrong error variant: {err}");
        };
        let mut sorted = known.clone();
        sorted.sort_unstable();
        assert_eq!(known, sorted, "suggestion list must be sorted");
        assert_eq!(known.len(), BUILTIN_SCHEME_NAMES.len());
    }

    #[test]
    fn adaptive_builtins_attach_policies_over_the_profile_table() {
        let trace = loop_trace();
        let r = SchemeRegistry::builtin();
        let params = SchemeParams::default();
        let profile = r.select("profile", &trace, &params).unwrap();
        assert!(profile.adaptive().is_none());

        let sb = r.select("scoreboard", &trace, &params).unwrap();
        let policy = sb.adaptive().expect("scoreboard attaches a policy");
        assert_eq!(policy.demote_threshold, Some(DEFAULT_DEMOTE_THRESHOLD));
        assert_eq!(policy.confidence_threshold, None);

        let cg = r.select("conf-gated", &trace, &params).unwrap();
        let policy = cg.adaptive().expect("conf-gated attaches a policy");
        assert_eq!(policy.demote_threshold, None);
        assert_eq!(
            policy.confidence_threshold,
            Some(DEFAULT_CONFIDENCE_THRESHOLD)
        );

        // Same pairs as the base scheme — only the runtime policy differs.
        let sb_pairs: Vec<_> = sb.iter().copied().collect();
        let base_pairs: Vec<_> = profile.iter().copied().collect();
        assert_eq!(sb_pairs, base_pairs);
    }

    #[test]
    fn custom_scheme_registers_and_selects() {
        let mut r = SchemeRegistry::builtin();
        r.register(Box::new(Everything)).unwrap();
        let trace = loop_trace();
        let t = r
            .select("everything", &trace, &SchemeParams::default())
            .unwrap();
        let profile = r
            .select("profile", &trace, &SchemeParams::default())
            .unwrap();
        assert!(t.num_pairs() >= profile.num_pairs());
    }
}
