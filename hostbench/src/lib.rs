//! Host-time benchmark of the parallel global router.
//!
//! The binary (`src/main.rs`) generates a workload's netlist from a seed,
//! parses it, routes it through the public drivers, verifies every
//! result and prints each metric by name with its unit. This library
//! holds the parts with tests of their own: the metric specification,
//! the order statistics, the host-speed reference and the process
//! readers and settings.

pub mod calib;
pub mod spec;
pub mod stats;
pub mod sys;
