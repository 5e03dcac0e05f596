//! End-to-end benchmark of the E2EProf pipeline: simulated capture →
//! `TracerAgent::poll` → sink (in-process channel, or `TracerLink` →
//! `Broker` → `AnalyzerConn` over loopback TCP) →
//! `OnlineAnalyzer::ingest_expected` → `OnlineAnalyzer::refresh`, with
//! every refresh's graphs checked against the simulator's ground truth.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod check;
pub mod driver;
pub mod json;
pub mod pin;
pub mod report;
pub mod sink;
pub mod stats;
pub mod trace;
pub mod workload;
