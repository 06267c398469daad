//! Name-based registry of resolution functions.
//!
//! Fuse By queries name functions textually (`RESOLVE(Age, max)`,
//! `RESOLVE(Price, choose('cheapstore'))`); the registry turns a
//! [`ResolutionSpec`] into a boxed function. Custom functions can be
//! registered, which is the extensibility hook the paper promises
//! ("HumMer is extensible and new functions can be added", §2.4).

use crate::error::FusionError;
use crate::functions::{
    ByLength, Choose, Coalesce, Concat, First, Group, Last, MostRecent, NumericAggregate,
    ResolutionFunction, TieBreak, Vote,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A parsed `RESOLVE` call: function name plus textual arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolutionSpec {
    /// Function name, case-insensitive.
    pub function: String,
    /// Positional arguments (source alias, recency column, separator, …).
    pub args: Vec<String>,
}

impl ResolutionSpec {
    /// A spec with no arguments.
    pub fn named(function: impl Into<String>) -> Self {
        ResolutionSpec {
            function: function.into(),
            args: Vec::new(),
        }
    }

    /// A spec with arguments.
    pub fn with_args(function: impl Into<String>, args: Vec<String>) -> Self {
        ResolutionSpec {
            function: function.into(),
            args,
        }
    }
}

/// Factory signature: turn the argument list into a ready function.
pub type FunctionFactory =
    Arc<dyn Fn(&[String]) -> Result<Arc<dyn ResolutionFunction>, FusionError> + Send + Sync>;

/// The registry mapping function names to factories.
#[derive(Clone)]
pub struct FunctionRegistry {
    factories: HashMap<String, FunctionFactory>,
}

impl std::fmt::Debug for FunctionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("FunctionRegistry")
            .field("functions", &names)
            .finish()
    }
}

fn no_args(name: &str, args: &[String]) -> Result<(), FusionError> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(FusionError::BadArgument(format!(
            "{name} takes no arguments, got {}",
            args.len()
        )))
    }
}

impl FunctionRegistry {
    /// A registry pre-loaded with every function from paper §2.4.
    pub fn standard() -> Self {
        let mut r = FunctionRegistry {
            factories: HashMap::new(),
        };
        r.register("coalesce", |args| {
            no_args("COALESCE", args)?;
            Ok(Arc::new(Coalesce))
        });
        r.register("first", |args| {
            no_args("FIRST", args)?;
            Ok(Arc::new(First))
        });
        r.register("last", |args| {
            no_args("LAST", args)?;
            Ok(Arc::new(Last))
        });
        r.register("vote", |args| {
            let tie_break = match args.first().map(|s| s.to_ascii_lowercase()) {
                None => TieBreak::FirstSeen,
                Some(s) if s == "first" => TieBreak::FirstSeen,
                Some(s) if s == "least" => TieBreak::Least,
                Some(s) if s == "greatest" => TieBreak::Greatest,
                Some(other) => {
                    return Err(FusionError::BadArgument(format!(
                        "VOTE tie-break must be first|least|greatest, got `{other}`"
                    )))
                }
            };
            Ok(Arc::new(Vote { tie_break }))
        });
        r.register("group", |args| {
            no_args("GROUP", args)?;
            Ok(Arc::new(Group))
        });
        r.register("concat", |args| {
            let separator = args.first().cloned().unwrap_or_else(|| " | ".into());
            Ok(Arc::new(Concat {
                separator,
                annotated: false,
            }))
        });
        r.register("annotatedconcat", |args| {
            let separator = args.first().cloned().unwrap_or_else(|| " | ".into());
            Ok(Arc::new(Concat {
                separator,
                annotated: true,
            }))
        });
        r.register("shortest", |args| {
            no_args("SHORTEST", args)?;
            Ok(Arc::new(ByLength { longest: false }))
        });
        r.register("longest", |args| {
            no_args("LONGEST", args)?;
            Ok(Arc::new(ByLength { longest: true }))
        });
        r.register("choose", |args| match args {
            [source] => Ok(Arc::new(Choose {
                source: source.clone(),
            })),
            _ => Err(FusionError::BadArgument(
                "CHOOSE requires exactly one argument: the source alias".into(),
            )),
        });
        r.register("mostrecent", |args| match args {
            [col] => Ok(Arc::new(MostRecent {
                recency_column: col.clone(),
            })),
            _ => Err(FusionError::BadArgument(
                "MOST RECENT requires exactly one argument: the recency column".into(),
            )),
        });
        for agg in [
            NumericAggregate::Min,
            NumericAggregate::Max,
            NumericAggregate::Sum,
            NumericAggregate::Avg,
            NumericAggregate::Median,
            NumericAggregate::Count,
        ] {
            r.register(agg.name().to_string(), move |args| {
                no_args(agg.name(), args)?;
                Ok(Arc::new(agg))
            });
        }
        r
    }

    /// Register (or replace) a factory under a case-insensitive name.
    pub fn register<N, F, R>(&mut self, name: N, factory: F)
    where
        N: Into<String>,
        F: Fn(&[String]) -> Result<Arc<R>, FusionError> + Send + Sync + 'static,
        R: ResolutionFunction + 'static,
    {
        let f: FunctionFactory =
            Arc::new(move |args| factory(args).map(|f| f as Arc<dyn ResolutionFunction>));
        self.factories.insert(name.into().to_ascii_lowercase(), f);
    }

    /// Instantiate a function from a spec. An unknown name errors with the
    /// full list of registered functions, so a typo in a `RESOLVE` clause
    /// tells the user what *would* have worked.
    pub fn build(&self, spec: &ResolutionSpec) -> Result<Arc<dyn ResolutionFunction>, FusionError> {
        let key = spec.function.to_ascii_lowercase();
        match self.factories.get(&key) {
            Some(factory) => factory(&spec.args),
            None => Err(FusionError::UnknownFunction(format!(
                "{} (available: {})",
                spec.function,
                self.names().join(", ")
            ))),
        }
    }

    /// Whether a function name is known.
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(&name.to_ascii_lowercase())
    }

    /// Registered function names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.factories.keys().cloned().collect();
        names.sort_unstable();
        names
    }
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        FunctionRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ConflictContext;
    use crate::functions::Resolved;
    use hummer_engine::{row, Row, Schema, Value};

    #[test]
    fn standard_names_present() {
        let r = FunctionRegistry::standard();
        for name in [
            "coalesce",
            "first",
            "last",
            "vote",
            "group",
            "concat",
            "annotatedconcat",
            "shortest",
            "longest",
            "choose",
            "mostrecent",
            "min",
            "max",
            "sum",
            "avg",
            "median",
            "count",
        ] {
            assert!(r.contains(name), "{name} missing");
        }
    }

    #[test]
    fn case_insensitive_lookup() {
        let r = FunctionRegistry::standard();
        assert!(r.build(&ResolutionSpec::named("MAX")).is_ok());
        assert!(r.build(&ResolutionSpec::named("Coalesce")).is_ok());
    }

    #[test]
    fn unknown_function_errors() {
        let r = FunctionRegistry::standard();
        let e = r.build(&ResolutionSpec::named("frobnicate"));
        assert!(matches!(e, Err(FusionError::UnknownFunction(_))));
    }

    #[test]
    fn unknown_function_error_lists_available_names() {
        let r = FunctionRegistry::standard();
        let msg = match r.build(&ResolutionSpec::named("frobnicate")) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("frobnicate must not resolve"),
        };
        assert!(msg.contains("frobnicate"), "{msg}");
        // Every registered name appears, sorted, so the user can pick.
        for name in r.names() {
            assert!(msg.contains(&name), "missing `{name}` in: {msg}");
        }
        assert!(msg.contains("available:"), "{msg}");
    }

    #[test]
    fn arg_validation() {
        let r = FunctionRegistry::standard();
        assert!(r.build(&ResolutionSpec::named("choose")).is_err());
        assert!(r
            .build(&ResolutionSpec::with_args("choose", vec!["src".into()]))
            .is_ok());
        assert!(r
            .build(&ResolutionSpec::with_args("max", vec!["oops".into()]))
            .is_err());
        assert!(r
            .build(&ResolutionSpec::with_args("vote", vec!["sideways".into()]))
            .is_err());
    }

    #[test]
    fn custom_function_registration() {
        struct AlwaysFortyTwo;
        impl ResolutionFunction for AlwaysFortyTwo {
            fn name(&self) -> &str {
                "fortytwo"
            }
            fn resolve(&self, _ctx: &ConflictContext<'_>) -> crate::functions::Result<Resolved> {
                Ok(Resolved::new(Value::Int(42), vec![]))
            }
        }
        let mut r = FunctionRegistry::standard();
        r.register("fortytwo", |_args| Ok(Arc::new(AlwaysFortyTwo)));
        let f = r.build(&ResolutionSpec::named("FortyTwo")).unwrap();
        let schema = Schema::of_names(&["x"]).unwrap();
        let rows: Vec<Row> = vec![row![1]];
        let ctx = ConflictContext {
            table_name: "T",
            schema: &schema,
            column: "x",
            column_index: 0,
            rows: &[&rows[0]],
            source_ids: &[None],
        };
        assert_eq!(f.resolve(&ctx).unwrap().value, Value::Int(42));
    }

    #[test]
    fn names_are_sorted() {
        let names = FunctionRegistry::standard().names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
