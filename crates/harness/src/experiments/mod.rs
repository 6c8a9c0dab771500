//! One driver per table/figure of the paper's evaluation, and one
//! renderer per section of `spechpc figures`, the only printer of the
//! paper's artifacts.
//!
//! | Paper artifact | Driver | Section |
//! |---|---|---|
//! | Tables 1–3 | [`tables`] | `tables` |
//! | §4.1.1–4.1.3 tables (Fig. 1 grid) | [`node_level`] | `fig1` |
//! | Fig. 2 (+ minisweep/lbm insets) | [`node_level::fig2_with`] | `fig2` |
//! | Fig. 3, Fig. 4, §4.2.1, §4.2.3, §4.3 | [`power_energy`] | `fig3`, `fig4` |
//! | Fig. 5, §5 ranking, §5.1 cases, §5.1.2 soma anomaly | [`multi_node`] | `fig5` |
//! | Fig. 6 | [`multi_node::fig6`] | `fig6` |

pub mod multi_node;
pub mod node_level;
pub mod power_energy;
pub mod tables;

use crate::error::HarnessError;
use crate::exec::Executor;
use crate::runner::RunConfig;

/// A section renderer: simulates what it needs through `exec` and
/// returns the text `spechpc figures` prints.
pub type Render = fn(&Executor) -> Result<String, HarnessError>;

/// Every section in `spechpc figures all` order, under the names that
/// select it (`fig3` and `fig4` name one power-and-energy section).
pub const SECTIONS: &[(&[&str], Render)] = &[
    (&["tables"], tables::render),
    (&["fig1"], node_level::render_fig1),
    (&["fig2"], node_level::render_fig2),
    (&["fig3", "fig4"], power_energy::render),
    (&["fig5"], multi_node::render_fig5),
    (&["fig6"], multi_node::render_fig6),
];

/// The renderers `spechpc figures <which>` runs: every section for
/// `all`, none for an unknown name.
pub fn sections(which: &str) -> Vec<Render> {
    SECTIONS
        .iter()
        .filter(|(names, _)| which == "all" || names.contains(&which))
        .map(|(_, render)| *render)
        .collect()
}

/// The section names `spechpc figures` accepts, `all` last.
pub fn section_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = SECTIONS
        .iter()
        .flat_map(|(n, _)| n.iter().copied())
        .collect();
    names.push("all");
    names
}

/// The run rules of every section: three repetitions, no event trace
/// (the Fig. 2 insets trace their two runs themselves).
pub fn run_config() -> RunConfig {
    RunConfig::default().with_repetitions(3).with_trace(false)
}

/// Join rendered blocks one per line, as consecutive `println!`s would
/// print them.
fn lines(blocks: Vec<String>) -> String {
    let mut out = blocks.join("\n");
    out.push('\n');
    out
}
