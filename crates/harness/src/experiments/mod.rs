//! One driver per table/figure of the paper's evaluation.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Tables 1–3 | [`tables`] |
//! | Fig. 1, §4.1.1–4.1.3 tables | [`node_level`] |
//! | Fig. 2 (+ minisweep/lbm insets) | [`node_level::fig2_with`] |
//! | Fig. 3, Fig. 4, §4.2.1, §4.2.3 | [`power_energy`] |
//! | Fig. 5, Fig. 6, §5.1 cases, §5.1.2 soma anomaly | [`multi_node`] |

pub mod multi_node;
pub mod node_level;
pub mod power_energy;
pub mod tables;
