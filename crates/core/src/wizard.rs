//! The six-step wizard (paper Fig. 2): the interactive face of the
//! pipeline, with every intermediate result inspectable and adjustable.
//!
//! ```text
//! 1. Choose sources → 2. Adjust matching → 3. Adjust duplicate definition
//! → 4. Confirm duplicates → 5. Specify resolution functions → 6. Browse
//! result set
//! ```
//!
//! Each step is a phase of [`Wizard`]; the mutating accessors between
//! phases are the programmatic equivalent of the demo GUI's overrides
//! ("users can correct or adjust the matching result", "users can
//! optionally adjust the results of the heuristics by hand", "sure
//! duplicates, sure non-duplicates, and unsure cases, all of which users
//! can decide upon individually").

use crate::error::{HummerError, Result};
use crate::pipeline::{
    fuse_prepared_traced, HummerConfig, PipelineOutcome, PreparedSources, StageTimings,
};
use crate::repository::MetadataRepository;
use hummer_dupdetect::{annotate_object_ids, detect_duplicates, DetectionResult, DetectorConfig};
use hummer_engine::Table;
use hummer_fusion::{FunctionRegistry, ResolutionSpec};
use hummer_matching::{integrate, match_star, MatchResult};
use hummer_obs::Span;
use std::time::Instant;

/// Where in the six-step flow the wizard currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WizardPhase {
    /// Step 2: schema matching ran; correspondences may be adjusted.
    AdjustMatching,
    /// Step 3: transformation ran; the duplicate definition (attributes,
    /// thresholds, strategy) may be adjusted.
    AdjustDuplicateDefinition,
    /// Step 4: detection ran; pairs may be confirmed/rejected.
    ConfirmDuplicates,
    /// Step 5: resolution functions may be assigned per column.
    SpecifyResolution,
    /// Step 6: fusion ran; the result is available.
    BrowseResult,
}

impl WizardPhase {
    fn name(&self) -> &'static str {
        match self {
            WizardPhase::AdjustMatching => "AdjustMatching",
            WizardPhase::AdjustDuplicateDefinition => "AdjustDuplicateDefinition",
            WizardPhase::ConfirmDuplicates => "ConfirmDuplicates",
            WizardPhase::SpecifyResolution => "SpecifyResolution",
            WizardPhase::BrowseResult => "BrowseResult",
        }
    }
}

/// The step-wise pipeline.
#[derive(Debug)]
pub struct Wizard {
    config: HummerConfig,
    phase: WizardPhase,
    tables: Vec<Table>,
    match_results: Vec<MatchResult>,
    integrated: Option<Table>,
    detection: Option<DetectionResult>,
    resolutions: Vec<(String, ResolutionSpec)>,
    timings: StageTimings,
}

impl Wizard {
    /// Step 1 (choose sources) + the automatic part of step 2: fetch the
    /// aliases from the repository and run schema matching. The first alias
    /// supplies the preferred schema.
    pub fn start(
        repo: &MetadataRepository,
        aliases: &[&str],
        config: HummerConfig,
    ) -> Result<Wizard> {
        if aliases.is_empty() {
            return Err(HummerError::Config(
                "wizard needs at least one source".into(),
            ));
        }
        let tables: Vec<Table> = aliases
            .iter()
            .map(|a| repo.get(a).cloned())
            .collect::<Result<_>>()?;
        let t0 = Instant::now();
        let refs: Vec<&Table> = tables.iter().collect();
        let match_results = match_star(&refs, &config.matcher, config.parallelism);
        let timings = StageTimings {
            matching: t0.elapsed(),
            ..Default::default()
        };
        Ok(Wizard {
            config,
            phase: WizardPhase::AdjustMatching,
            tables,
            match_results,
            integrated: None,
            detection: None,
            resolutions: Vec::new(),
            timings,
        })
    }

    /// The current phase.
    pub fn phase(&self) -> WizardPhase {
        self.phase
    }

    fn expect_phase(&self, expected: WizardPhase, action: &str) -> Result<()> {
        if self.phase == expected {
            Ok(())
        } else {
            Err(HummerError::WizardPhase {
                action: action.to_string(),
                phase: self.phase.name().to_string(),
            })
        }
    }

    // -- step 2: adjust matching ------------------------------------------

    /// The matching results (one per non-preferred source), for inspection.
    pub fn match_results(&self) -> &[MatchResult] {
        &self.match_results
    }

    /// Mutable matching results — add or delete correspondences
    /// (only before [`Wizard::confirm_matching`]).
    pub fn match_results_mut(&mut self) -> Result<&mut [MatchResult]> {
        self.expect_phase(WizardPhase::AdjustMatching, "adjust matching")?;
        Ok(&mut self.match_results)
    }

    /// Accept the (possibly adjusted) matching and run the transformation:
    /// rename, tag with `sourceID`, full outer union. Advances to step 3.
    pub fn confirm_matching(&mut self) -> Result<&Table> {
        self.expect_phase(WizardPhase::AdjustMatching, "confirm matching")?;
        let t0 = Instant::now();
        let refs: Vec<&Table> = self.tables.iter().collect();
        let integrated = integrate(&refs, &self.match_results, "Integrated")?;
        self.timings.transformation = t0.elapsed();
        self.integrated = Some(integrated);
        self.phase = WizardPhase::AdjustDuplicateDefinition;
        Ok(self.integrated.as_ref().expect("just set"))
    }

    /// The integrated table (available from step 3 on).
    pub fn integrated(&self) -> Option<&Table> {
        self.integrated.as_ref()
    }

    // -- step 3: adjust duplicate definition --------------------------------

    /// The detector configuration, adjustable in step 3 ("users can
    /// optionally adjust the results of the heuristics by hand").
    pub fn detector_config_mut(&mut self) -> Result<&mut DetectorConfig> {
        self.expect_phase(
            WizardPhase::AdjustDuplicateDefinition,
            "adjust duplicate definition",
        )?;
        Ok(&mut self.config.detector)
    }

    /// Run duplicate detection with the current definition. Advances to
    /// step 4.
    pub fn run_detection(&mut self) -> Result<&DetectionResult> {
        self.expect_phase(WizardPhase::AdjustDuplicateDefinition, "run detection")?;
        let integrated = self.integrated.as_ref().expect("set at confirm_matching");
        let t0 = Instant::now();
        let detection =
            detect_duplicates(integrated, &self.config.detector, self.config.parallelism)?;
        self.timings.detection = t0.elapsed();
        self.detection = Some(detection);
        self.phase = WizardPhase::ConfirmDuplicates;
        Ok(self.detection.as_ref().expect("just set"))
    }

    // -- step 4: confirm duplicates ----------------------------------------

    /// The detection result (pairs, unsure cases, clusters).
    pub fn detection(&self) -> Option<&DetectionResult> {
        self.detection.as_ref()
    }

    /// Mutable detection result for confirming unsure pairs / rejecting
    /// false positives (call `recluster()` after edits, or just proceed —
    /// [`Wizard::confirm_duplicates`] reclusters).
    pub fn detection_mut(&mut self) -> Result<&mut DetectionResult> {
        self.expect_phase(WizardPhase::ConfirmDuplicates, "edit duplicates")?;
        Ok(self.detection.as_mut().expect("set at run_detection"))
    }

    /// Accept the (possibly adjusted) duplicates. Advances to step 5.
    pub fn confirm_duplicates(&mut self) -> Result<()> {
        self.expect_phase(WizardPhase::ConfirmDuplicates, "confirm duplicates")?;
        self.detection.as_mut().expect("set").recluster();
        self.phase = WizardPhase::SpecifyResolution;
        Ok(())
    }

    // -- step 5: specify resolution functions -------------------------------

    /// Assign a resolution function to a column (step 5). Columns without
    /// an assignment default to `COALESCE`.
    pub fn set_resolution(
        &mut self,
        column: impl Into<String>,
        spec: ResolutionSpec,
    ) -> Result<()> {
        self.expect_phase(WizardPhase::SpecifyResolution, "specify resolution")?;
        self.resolutions.push((column.into(), spec));
        Ok(())
    }

    /// Run fusion and produce the final outcome. Advances to step 6.
    pub fn finish(&mut self, registry: &FunctionRegistry) -> Result<PipelineOutcome> {
        self.expect_phase(WizardPhase::SpecifyResolution, "finish")?;
        let integrated = self.integrated.clone().expect("set at confirm_matching");
        let detection = self.detection.clone().expect("set at run_detection");
        let prepared = PreparedSources {
            annotated: annotate_object_ids(&integrated, &detection)?,
            match_results: self.match_results.clone(),
            integrated,
            detection,
            timings: self.timings,
        };
        let outcome = fuse_prepared_traced(
            &prepared,
            &self.resolutions,
            registry,
            self.config.parallelism,
            &Span::noop(),
        )?;
        self.timings = outcome.timings;
        self.phase = WizardPhase::BrowseResult;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hummer_engine::{table, Value};
    use hummer_matching::{MatcherConfig, SniffConfig};

    fn repo() -> MetadataRepository {
        let mut r = MetadataRepository::new();
        r.register_table(
            "EE",
            table! {
                "EE" => ["Name", "Age"];
                ["John Smith", 24],
                ["Mary Jones", 22],
                ["Peter Miller", 27],
            },
        )
        .unwrap();
        r.register_table(
            "CS",
            table! {
                "CS" => ["FullName", "Years"];
                ["John Smith", 25],
                ["Mary Jones", 22],
            },
        )
        .unwrap();
        r
    }

    fn config() -> HummerConfig {
        HummerConfig {
            matcher: MatcherConfig {
                sniff: SniffConfig {
                    min_similarity: 0.2,
                    ..Default::default()
                },
                ..Default::default()
            },
            detector: DetectorConfig {
                threshold: 0.7,
                unsure_threshold: 0.55,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn full_walkthrough() {
        let r = repo();
        let mut w = Wizard::start(&r, &["EE", "CS"], config()).unwrap();
        assert_eq!(w.phase(), WizardPhase::AdjustMatching);
        assert_eq!(w.match_results().len(), 1);

        let integrated = w.confirm_matching().unwrap();
        assert_eq!(integrated.len(), 5);
        assert_eq!(w.phase(), WizardPhase::AdjustDuplicateDefinition);

        w.run_detection().unwrap();
        assert_eq!(w.phase(), WizardPhase::ConfirmDuplicates);
        assert_eq!(w.detection().unwrap().object_count(), 3);

        w.confirm_duplicates().unwrap();
        w.set_resolution("Age", ResolutionSpec::named("max"))
            .unwrap();
        let out = w.finish(&FunctionRegistry::standard()).unwrap();
        assert_eq!(w.phase(), WizardPhase::BrowseResult);
        assert_eq!(out.result.len(), 3);
        let name = out.result.resolve("Name").unwrap();
        let age = out.result.resolve("Age").unwrap();
        let john = out
            .result
            .rows()
            .iter()
            .find(|r| r[name] == Value::text("John Smith"))
            .unwrap();
        assert_eq!(john[age], Value::Int(25));
    }

    #[test]
    fn user_can_fix_matching_before_transform() {
        let r = repo();
        let mut w = Wizard::start(&r, &["EE", "CS"], config()).unwrap();
        // Simulate a user override: force an extra correspondence.
        w.match_results_mut().unwrap()[0].add("Age", "Years", 1.0);
        let integrated = w.confirm_matching().unwrap();
        assert!(integrated.schema().contains("Age"));
        assert!(!integrated.schema().contains("Years"));
    }

    #[test]
    fn user_can_reject_duplicate_pair() {
        let r = repo();
        let mut w = Wizard::start(&r, &["EE", "CS"], config()).unwrap();
        w.confirm_matching().unwrap();
        w.run_detection().unwrap();
        let n_before = w.detection().unwrap().object_count();
        // Reject every detected pair → everything becomes a singleton.
        let pairs: Vec<_> = w.detection().unwrap().pairs.clone();
        for p in &pairs {
            w.detection_mut().unwrap().reject_pair(p.left, p.right);
        }
        w.confirm_duplicates().unwrap();
        let out = w.finish(&FunctionRegistry::standard()).unwrap();
        assert_eq!(out.result.len(), 5);
        assert!(n_before < 5);
    }

    #[test]
    fn phase_violations_are_rejected() {
        let r = repo();
        let mut w = Wizard::start(&r, &["EE", "CS"], config()).unwrap();
        assert!(w.run_detection().is_err()); // must confirm matching first
        assert!(w
            .set_resolution("Age", ResolutionSpec::named("max"))
            .is_err());
        assert!(w.finish(&FunctionRegistry::standard()).is_err());
        w.confirm_matching().unwrap();
        assert!(w.match_results_mut().is_err()); // too late to adjust
        assert!(w.confirm_duplicates().is_err()); // detection not run yet
    }

    #[test]
    fn detector_config_adjustable_in_step3() {
        let r = repo();
        let mut w = Wizard::start(&r, &["EE", "CS"], config()).unwrap();
        w.confirm_matching().unwrap();
        w.detector_config_mut().unwrap().attributes = Some(vec!["Name".into()]);
        let det = w.run_detection().unwrap();
        assert_eq!(det.attributes_used, vec!["Name"]);
    }

    #[test]
    fn empty_aliases_rejected() {
        let r = repo();
        assert!(Wizard::start(&r, &[], config()).is_err());
    }
}
