//! `spechpc figures` prints the paper's artifacts through
//! `experiments::SECTIONS`. Every section renders once here through the
//! same renderers and must print its markers, so a section that goes
//! missing, or loses a block, fails tier-1.

use spechpc::harness::experiments::{self, SECTIONS};
use spechpc::prelude::*;

/// The markers each section prints, by its first name.
const MARKERS: &[(&str, &[&str])] = &[
    ("tables", &["## Table 1", "## Table 2", "## Table 3"]),
    ("fig1", &["§4.1.1", "§4.1.2", "§4.1.3"]),
    (
        "fig2",
        &[
            "Fig. 2 insets",
            "## Fig. 2 (ClusterA)",
            "memory bandwidth of one full ccNUMA domain (ClusterB, 13 cores)",
            "minisweep@59:",
            "at 58 processes",
            "lbm@71:",
            "at 72 processes",
            "first 16 of 59 ranks",
        ],
    ),
    (
        "fig3",
        &[
            "Fig. 3 (ClusterA)",
            "Fig. 3 (ClusterB)",
            "weather (ClusterB)       E/EDP minima separation",
            "## §4.2.1",
            "## §4.2.3",
            "Fig. 4 — Z-plot",
            "E minimum at",
            "§4.3.1",
            "race-to-idle wins",
            "concurrency throttling pays off",
            "§4.3.2",
        ],
    ),
    (
        "fig5",
        &[
            "## Fig. 5 (ClusterA)",
            "scaling cases (ClusterA)",
            "§5.1.2 soma anomaly (ClusterA)",
            "§5 communication-routine ranking (ClusterA, 16 nodes)",
            "## Fig. 5 (ClusterB)",
            "scaling cases (ClusterB)",
            "§5.1.2 soma anomaly (ClusterB)",
            "§5 communication-routine ranking (ClusterB, 16 nodes)",
            "| weather    | 16    |",
        ],
    ),
    (
        "fig6",
        &[
            "## Fig. 6 (ClusterA)",
            "## Fig. 6 (ClusterB)",
            "| weather    | 16    |",
        ],
    ),
];

#[test]
fn every_section_prints_its_markers() {
    let names: Vec<&str> = SECTIONS.iter().map(|(names, _)| names[0]).collect();
    let want: Vec<&str> = MARKERS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names, want,
        "a section without markers, or markers without a section"
    );
    assert_eq!(experiments::sections("all").len(), SECTIONS.len());
    assert_eq!(experiments::sections("fig4").len(), 1);
    assert!(experiments::sections("fig7").is_empty());

    let exec = Executor::new(experiments::run_config(), ExecConfig::default());
    for ((_, render), (name, markers)) in SECTIONS.iter().zip(MARKERS) {
        let text = render(&exec).unwrap_or_else(|e| panic!("{name}: {e}"));
        for marker in *markers {
            assert!(
                text.contains(marker),
                "{name} printed no '{marker}':\n{text}"
            );
        }
    }
}
