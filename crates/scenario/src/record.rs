//! Campaign record/replay: bind a whole [`ScenarioSet`] run — specs,
//! seeds, tool and artifact-format versions, compile-sharing settings,
//! and per-member/per-component result digests — into one
//! `campaign-recording` manifest that replays bit-identically or fails
//! loudly, naming the **first** diverging member and component.
//!
//! The repo already records every non-deterministic input (seeds live
//! in the specs, traces are seeded generators, artifacts are stamped);
//! what was missing is the single manifest that ties a campaign
//! together so cross-PR bit-drift (say, from vectorizing the replay
//! loop) is a first-class detected event instead of an ad-hoc `cmp`
//! leg in CI. A [`CampaignRecording`] is that manifest:
//!
//! * [`CampaignRecording::record`] runs a set through the executor and
//!   digests every member's result components ([`ContentDigest`]:
//!   CRC-32 + length over the canonical binary encoding — equal iff
//!   bit-identical).
//! * [`CampaignRecording::replay`] re-runs the stored set and diffs the
//!   digests, producing a [`ReplayReport`] whose [`Divergence`] (if
//!   any) localizes the first mismatch: *which member, which component,
//!   expected vs got*.
//! * Recordings from a different tool or artifact-format version, or
//!   whose stored members don't stamp against their own set (a foreign
//!   graft), are **refused** before any simulation runs.
//!
//! The committed `GOLDEN_TESTS/` corpus (see `razorbus-bench`) is a set
//! of these manifests covering the whole scenario catalog.

use crate::exec::{compile_budget, ScenarioSet, ScenarioSetRun};
use crate::result::{MemberResult, ScenarioSetResult};
use razorbus_artifact::ContentDigest;
use std::fmt;

/// Tool version stamped into recordings (the workspace version).
pub const TOOL_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Component name for the member's resolved [`crate::ScenarioSpec`].
pub const COMPONENT_SPEC: &str = "spec";
/// Component name for the member's closed-loop product.
pub const COMPONENT_LOOP: &str = "closed-loop";
/// Component name for the member's sweep product.
pub const COMPONENT_SWEEP: &str = "sweep";
/// Component name for the campaign-level streaming digest — a
/// set-level component, reported with the member index one past the
/// last expanded member.
pub const COMPONENT_DIGEST: &str = "campaign-digest";

/// One digested component of one member's result.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ComponentRecord {
    /// Component name: [`COMPONENT_SPEC`], [`COMPONENT_LOOP`] or
    /// [`COMPONENT_SWEEP`].
    pub component: String,
    /// Digest of the component's canonical binary encoding.
    pub digest: ContentDigest,
}

/// One member's digests, in the member's expansion position.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemberRecord {
    /// The member's resolved (sweep-expanded) name.
    pub name: String,
    /// Component digests in canonical order: spec, then closed-loop
    /// and/or sweep as the member's analysis requested.
    pub components: Vec<ComponentRecord>,
}

/// A recorded campaign: everything needed to re-run a [`ScenarioSet`]
/// and verify the results bit-identical — the `campaign-recording`
/// artifact kind.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignRecording {
    /// Tool (workspace) version that recorded the campaign.
    pub tool_version: String,
    /// Artifact container/format version in force at record time.
    pub format_version: u16,
    /// Whether the executor shared compiled traces during the recorded
    /// run. Results are pinned bit-identical either way (the executor
    /// tests enforce shared ≡ live), so this is provenance plus the
    /// default replay setting, not a digest input.
    pub share_compiled: bool,
    /// Compiled-trace memory budget (bytes) in force at record time —
    /// provenance only: the budget moves jobs between the shared and
    /// live paths, which are pinned bit-identical.
    pub compile_budget_bytes: u64,
    /// The recorded set. Specs carry every non-deterministic input:
    /// cycles, seeds, corners, governors, workload recipes.
    pub set: ScenarioSet,
    /// Per-member digests in expansion order — **aggregate-mode
    /// members excluded**: they materialize no products, so a
    /// Monte-Carlo campaign's manifest stays a few hundred bytes
    /// instead of one record per member. Their collective result is
    /// pinned by `digest` below.
    pub members: Vec<MemberRecord>,
    /// Digest of the campaign's streaming [`crate::CampaignDigest`],
    /// present exactly when the set has aggregate-mode members.
    pub digest: Option<ContentDigest>,
}

/// The first digest mismatch of a replay, localized to a member and a
/// component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the diverging member in expansion order.
    pub member_index: usize,
    /// The diverging member's resolved name.
    pub member: String,
    /// The diverging component within that member.
    pub component: String,
    /// The recorded digest.
    pub expected: ContentDigest,
    /// The digest the replay produced.
    pub got: ContentDigest,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "digest mismatch in member `{}` (index {}), component `{}`: expected {} got {}",
            self.member, self.member_index, self.component, self.expected, self.got
        )
    }
}

/// The outcome of one [`CampaignRecording::replay`]: how much matched
/// and, if anything diverged, where it diverged **first**.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The campaign (set) name.
    pub campaign: String,
    /// Members whose every component matched (all of them when clean;
    /// the count *before* the diverging member otherwise).
    pub members_matched: usize,
    /// Total members in the campaign.
    pub members_total: usize,
    /// Component digests that matched before the first divergence.
    pub components_matched: usize,
    /// The first divergence, when the replay was not bit-identical.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the replay was bit-identical to the recording.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            None => write!(
                f,
                "campaign `{}`: replay clean ({} members, {} component digests bit-identical)",
                self.campaign, self.members_total, self.components_matched
            ),
            Some(d) => write!(
                f,
                "campaign `{}`: REPLAY DIVERGED — {} ({} of {} members and {} component \
                 digests matched before the divergence)",
                self.campaign, d, self.members_matched, self.members_total, self.components_matched
            ),
        }
    }
}

impl CampaignRecording {
    /// Runs `set` through the executor and records it: the returned
    /// manifest replays the run bit-identically via
    /// [`CampaignRecording::replay`]. Also returns the run itself so
    /// callers can render it without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates executor and digest errors.
    pub fn record(
        set: &ScenarioSet,
        share_compiled: bool,
    ) -> Result<(Self, ScenarioSetRun), String> {
        let run = set.run_with_workers(Vec::new(), share_compiled, None)?;
        let recording = Self::from_run(set, &run.result, share_compiled)?;
        Ok((recording, run))
    }

    /// Builds a recording from an already-executed result.
    ///
    /// # Errors
    ///
    /// Errors when `result` is not the product of `set` (member count or
    /// names disagree with the set's expansion), a digest fails, or
    /// `RAZORBUS_COMPILE_BUDGET_MB` is unparsable.
    pub fn from_run(
        set: &ScenarioSet,
        result: &ScenarioSetResult,
        share_compiled: bool,
    ) -> Result<Self, String> {
        let expanded = set.expand()?;
        if expanded.len() != result.members.len()
            || expanded
                .iter()
                .zip(&result.members)
                .any(|(spec, member)| spec.name != member.spec.name)
        {
            return Err(format!(
                "result `{}` is not the product of set `{}`: member names disagree \
                 with the set's expansion",
                result.name, set.name
            ));
        }
        let members = result
            .members
            .iter()
            .filter(|m| !m.spec.analysis.wants_aggregate())
            .map(digest_member)
            .collect::<Result<Vec<_>, _>>()?;
        let digest = match &result.digest {
            Some(d) => Some(
                ContentDigest::of(d)
                    .map_err(|e| format!("cannot digest campaign digest of `{}`: {e}", set.name))?,
            ),
            None => None,
        };
        Ok(Self {
            tool_version: TOOL_VERSION.to_string(),
            format_version: razorbus_artifact::CONTAINER_VERSION,
            share_compiled,
            compile_budget_bytes: compile_budget()?,
            set: set.clone(),
            members,
            digest,
        })
    }

    /// Refuses recordings this build cannot faithfully replay: a
    /// different tool version (results may legitimately differ across
    /// versions — regenerate instead of chasing ghosts) or a newer
    /// artifact-format version.
    ///
    /// # Errors
    ///
    /// Returns the mismatch with a regeneration hint.
    pub fn verify_versions(&self) -> Result<(), String> {
        if self.tool_version != TOOL_VERSION {
            return Err(format!(
                "recording was made by razorbus {} but this build is {} — \
                 re-record the campaign under this version",
                self.tool_version, TOOL_VERSION
            ));
        }
        if self.format_version != razorbus_artifact::CONTAINER_VERSION {
            return Err(format!(
                "recording uses artifact-format version {} but this build speaks {} — \
                 re-record the campaign under this version",
                self.format_version,
                razorbus_artifact::CONTAINER_VERSION
            ));
        }
        Ok(())
    }

    /// Refuses recordings whose member records don't stamp against
    /// their own stored set — a graft of digests from some other
    /// campaign (the members must mirror the set's expansion: same
    /// count, same names, same order, and each member's component list
    /// must match what its analysis spec produces).
    ///
    /// Digest *values* are deliberately not checked here: a perturbed
    /// digest is a divergence for [`CampaignRecording::replay`] to
    /// localize, not a malformed manifest.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural mismatch.
    pub fn verify_self_consistent(&self) -> Result<(), String> {
        let expanded = self.set.expand()?;
        let wants_digest = expanded.iter().any(|s| s.analysis.wants_aggregate());
        if wants_digest != self.digest.is_some() {
            return Err(format!(
                "recording of `{}` {} a campaign digest but the set {} aggregate \
                 members — foreign or hand-edited recording",
                self.set.name,
                if self.digest.is_some() {
                    "carries"
                } else {
                    "lacks"
                },
                if wants_digest { "expands to" } else { "has no" },
            ));
        }
        let expanded: Vec<_> = expanded
            .into_iter()
            .filter(|s| !s.analysis.wants_aggregate())
            .collect();
        if expanded.len() != self.members.len() {
            return Err(format!(
                "recording of `{}` holds {} member records but the set expands to {} \
                 materialized members — foreign or hand-edited recording",
                self.set.name,
                self.members.len(),
                expanded.len()
            ));
        }
        for (i, (spec, member)) in expanded.iter().zip(&self.members).enumerate() {
            if spec.name != member.name {
                return Err(format!(
                    "recording of `{}`: member record {i} is named `{}` but the set \
                     expands to `{}` there — foreign or hand-edited recording",
                    self.set.name, member.name, spec.name
                ));
            }
            let mut expected = vec![COMPONENT_SPEC];
            if spec.analysis.wants_loop() {
                expected.push(COMPONENT_LOOP);
            }
            if spec.analysis.wants_sweep() {
                expected.push(COMPONENT_SWEEP);
            }
            let found: Vec<&str> = member
                .components
                .iter()
                .map(|c| c.component.as_str())
                .collect();
            if found != expected {
                return Err(format!(
                    "recording of `{}`: member `{}` records components [{}] but its \
                     analysis spec produces [{}] — foreign or hand-edited recording",
                    self.set.name,
                    member.name,
                    found.join(", "),
                    expected.join(", ")
                ));
            }
        }
        Ok(())
    }

    /// Re-runs the recorded set under the recorded compile-sharing
    /// setting and diffs every digest. See
    /// [`CampaignRecording::replay_with_sharing`].
    ///
    /// # Errors
    ///
    /// Same as [`CampaignRecording::replay_with_sharing`].
    pub fn replay(&self) -> Result<ReplayReport, String> {
        self.replay_with_sharing(self.share_compiled)
    }

    /// Re-runs the recorded set — with compiled-trace sharing forced on
    /// or off, which must not change any digest (the shared and live
    /// executor paths are pinned bit-identical) — and diffs every
    /// member's component digests against the recording.
    ///
    /// A divergence is **not** an `Err`: the replay machinery worked,
    /// the results drifted. Callers check [`ReplayReport::is_clean`]
    /// (the harness binaries exit non-zero and print the localized
    /// report).
    ///
    /// # Errors
    ///
    /// Version refusals, foreign-recording refusals, and executor
    /// errors — everything that prevents the diff from being computed
    /// at all.
    pub fn replay_with_sharing(&self, share_compiled: bool) -> Result<ReplayReport, String> {
        self.verify_versions()?;
        self.verify_self_consistent()?;
        let run = self
            .set
            .run_with_workers(Vec::new(), share_compiled, None)?;
        self.diff(&run.result)
    }

    /// Diffs an already-executed result against the recording,
    /// reporting the first diverging member and component.
    ///
    /// # Errors
    ///
    /// Errors when `result`'s shape doesn't match the recording (it
    /// must come from the same set) or a digest fails.
    pub fn diff(&self, result: &ScenarioSetResult) -> Result<ReplayReport, String> {
        let fresh_members: Vec<&MemberResult> = result
            .members
            .iter()
            .filter(|m| !m.spec.analysis.wants_aggregate())
            .collect();
        if fresh_members.len() != self.members.len() {
            return Err(format!(
                "cannot diff: result holds {} materialized members, recording {}",
                fresh_members.len(),
                self.members.len()
            ));
        }
        let mut components_matched = 0usize;
        for (index, (recorded, &fresh)) in self.members.iter().zip(&fresh_members).enumerate() {
            let fresh_digests = digest_member(fresh)?;
            for stored in &recorded.components {
                let Some(now) = fresh_digests
                    .components
                    .iter()
                    .find(|c| c.component == stored.component)
                else {
                    return Err(format!(
                        "cannot diff: member `{}` produced no `{}` component this run",
                        recorded.name, stored.component
                    ));
                };
                if now.digest != stored.digest {
                    return Ok(ReplayReport {
                        campaign: self.set.name.clone(),
                        members_matched: index,
                        members_total: self.members.len(),
                        components_matched,
                        divergence: Some(Divergence {
                            member_index: index,
                            member: recorded.name.clone(),
                            component: stored.component.clone(),
                            expected: stored.digest,
                            got: now.digest,
                        }),
                    });
                }
                components_matched += 1;
            }
        }
        // The campaign digest is a set-level component: compare it
        // last, reported with the member index one past the expansion.
        match (&self.digest, &result.digest) {
            (None, None) => {}
            (Some(expected), Some(digest)) => {
                let got = ContentDigest::of(digest).map_err(|e| {
                    format!("cannot digest campaign digest of `{}`: {e}", self.set.name)
                })?;
                if got != *expected {
                    return Ok(ReplayReport {
                        campaign: self.set.name.clone(),
                        members_matched: self.members.len(),
                        members_total: self.members.len(),
                        components_matched,
                        divergence: Some(Divergence {
                            member_index: result.members.len(),
                            member: self.set.name.clone(),
                            component: COMPONENT_DIGEST.to_string(),
                            expected: *expected,
                            got,
                        }),
                    });
                }
                components_matched += 1;
            }
            (Some(_), None) => {
                return Err(format!(
                    "cannot diff: recording of `{}` expects a campaign digest but the \
                     result carries none",
                    self.set.name
                ));
            }
            (None, Some(_)) => {
                return Err(format!(
                    "cannot diff: result of `{}` carries a campaign digest the \
                     recording does not expect",
                    self.set.name
                ));
            }
        }
        Ok(ReplayReport {
            campaign: self.set.name.clone(),
            members_matched: self.members.len(),
            members_total: self.members.len(),
            components_matched,
            divergence: None,
        })
    }
}

/// Digests one member's components in canonical order (spec, then
/// closed-loop and/or sweep as present).
fn digest_member(member: &MemberResult) -> Result<MemberRecord, String> {
    let digest = |what: &str, d: Result<ContentDigest, razorbus_artifact::ArtifactError>| {
        d.map_err(|e| {
            format!(
                "cannot digest `{}` of member `{}`: {e}",
                what, member.spec.name
            )
        })
    };
    let mut components = vec![ComponentRecord {
        component: COMPONENT_SPEC.to_string(),
        digest: digest(COMPONENT_SPEC, ContentDigest::of(&member.spec))?,
    }];
    if let Some(loop_data) = &member.closed_loop {
        components.push(ComponentRecord {
            component: COMPONENT_LOOP.to_string(),
            digest: digest(COMPONENT_LOOP, ContentDigest::of(loop_data))?,
        });
    }
    if let Some(sweep) = &member.sweep {
        components.push(ComponentRecord {
            component: COMPONENT_SWEEP.to_string(),
            digest: digest(COMPONENT_SWEEP, ContentDigest::of(sweep))?,
        });
    }
    Ok(MemberRecord {
        name: member.spec.name.clone(),
        components,
    })
}
