//! # spear-serve — campaign-as-a-service
//!
//! A resident, sharded simulation server: sweep campaigns are submitted
//! as JSON jobs over a localhost HTTP/1.1 control plane, queued in a
//! bounded FIFO, and executed one at a time through the ordinary
//! [`spear_campaign::Campaign`] machinery with all worker threads.
//! Warm per-workload state (compiled binary + functional-pass
//! checkpoints) is shared across jobs through the campaign crate's
//! [`spear_campaign::ShardCache`], so ten jobs over the same workloads
//! pay for one functional pass, not ten.
//!
//! The server is *crash-safe by store, not by protocol*: job state
//! lives in marker files under `root/jobs/<id>/` and cell results in
//! each campaign's append-only `cells.jsonl`. A restart — graceful or
//! `kill -9` — rescans the store, re-enqueues whatever is unfinished,
//! and resumes it losing at most in-flight cells. Aggregate envelopes
//! are written by the same [`spear_campaign::write_aggregate_envelopes`]
//! the CLI uses, so served results are byte-identical to `spear-sim
//! campaign` output by construction.
//!
//! Control plane (all JSON unless noted):
//!
//! | Endpoint                    | Meaning                                      |
//! |-----------------------------|----------------------------------------------|
//! | `POST /jobs`                | submit a sweep spec; `429` when queue full   |
//! | `GET /jobs`                 | list all jobs with states                    |
//! | `GET /jobs/<id>`            | state + live progress + ETA                  |
//! | `GET /jobs/<id>/aggregates` | aggregate envelopes (raw, byte-identical)    |
//! | `POST /jobs/<id>/cancel`    | cooperative cancel                           |
//! | `GET /metrics`              | Prometheus text: queue, cache, progress      |
//! | `GET /healthz`              | liveness probe                               |
//! | `POST /shutdown`            | graceful drain and exit                      |

pub mod client;
pub mod http;
pub mod jobs;
pub mod server;

pub use jobs::{Job, JobState};
pub use server::{install_signal_handlers, ServeConfig, Server};
pub use spear_campaign::JobSpec;
