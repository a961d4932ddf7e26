//! The serde derive's default and omission attributes, on test types and
//! on the persisted campaign records that rely on them: a value equal to
//! its default is left out of the JSON and comes back when the key is
//! absent, while a key that is present but malformed is still an error.

use serde::{Deserialize, Serialize};
use spear_campaign::{CellResult, JobSpec, CELL_SCHEMA_VERSION};
use spear_cpu::{CoreStats, RunExit};

fn seven() -> u64 {
    7
}

fn is_seven(v: &u64) -> bool {
    *v == 7
}

/// Field-level defaults.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Fields {
    required: String,
    #[serde(default = "seven", skip_serializing_if = "is_seven")]
    seven: u64,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    list: Vec<u32>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
}

/// A container default: every absent key comes from `Self::default()`.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(default)]
struct Container {
    name: String,
    count: u64,
}

impl Default for Container {
    fn default() -> Container {
        Container {
            name: "unnamed".into(),
            count: 3,
        }
    }
}

#[test]
fn defaults_are_omitted_and_restored() {
    let plain = Fields {
        required: "x".into(),
        seven: 7,
        list: Vec::new(),
        note: None,
    };
    let json = serde::json::to_string(&plain);
    assert_eq!(json, "{\"required\":\"x\"}");
    assert_eq!(serde::json::from_str::<Fields>(&json).unwrap(), plain);

    let full = Fields {
        required: "y".into(),
        seven: 8,
        list: vec![1, 2],
        note: Some("n".into()),
    };
    let json = serde::json::to_string(&full);
    assert_eq!(
        json, "{\"required\":\"y\",\"seven\":8,\"list\":[1,2],\"note\":\"n\"}",
        "non-default values serialize in declaration order"
    );
    assert_eq!(serde::json::from_str::<Fields>(&json).unwrap(), full);
}

#[test]
fn absent_keys_take_container_and_path_defaults() {
    let c: Container = serde::json::from_str("{\"count\":9}").unwrap();
    assert_eq!(
        c,
        Container {
            name: "unnamed".into(),
            count: 9
        }
    );
    assert_eq!(
        serde::json::from_str::<Container>("{}").unwrap(),
        Container::default()
    );
    let f: Fields = serde::json::from_str("{\"required\":\"r\"}").unwrap();
    assert_eq!((f.seven, f.list.len(), f.note), (7, 0, None));
}

#[test]
fn present_but_malformed_keys_are_errors() {
    for bad in [
        "{\"required\":\"r\",\"seven\":\"seven\"}",
        "{\"required\":\"r\",\"list\":{}}",
        "{\"required\":\"r\",\"note\":5}",
        "{\"seven\":7}",
    ] {
        assert!(
            serde::json::from_str::<Fields>(bad).is_err(),
            "`{bad}` must not parse"
        );
    }
    assert!(serde::json::from_str::<Container>("{\"count\":-1}").is_err());
    assert!(serde::json::from_str::<Container>("[]").is_err());
    assert!(serde::json::from_str::<JobSpec>("{\"stride\":\"1\"}").is_err());
    assert!(serde::json::from_str::<JobSpec>("{\"workloads\":\"mcf\"}").is_err());
}

fn cell(weight: u64) -> CellResult {
    CellResult {
        schema_version: CELL_SCHEMA_VERSION,
        workload: "mcf".into(),
        machine: "SPEAR-128".into(),
        bpred: "bimodal".into(),
        frontend: "program".into(),
        mem_latency: 120,
        interval: 4,
        start_inst: 400,
        target_insts: 100,
        weight,
        exit: RunExit::InstBudget,
        wall_ms: 2,
        stats: CoreStats {
            cycles: 50,
            committed: 100,
            ..Default::default()
        },
    }
}

#[test]
fn cell_weight_is_omitted_at_one_and_implied_for_older_records() {
    let unit = serde::json::to_string(&cell(1));
    assert!(!unit.contains("weight"), "{unit}");
    // A record from a writer that predates SimPoint has no weight key.
    let back: CellResult = serde::json::from_str(&unit).unwrap();
    assert_eq!(back, cell(1));

    let weighted = serde::json::to_string(&cell(5));
    assert!(
        weighted.contains("\"target_insts\":100,\"weight\":5,\"exit\""),
        "weight sits between target_insts and exit: {weighted}"
    );
    assert_eq!(
        serde::json::from_str::<CellResult>(&weighted).unwrap(),
        cell(5)
    );
    let mistyped = weighted.replace("\"weight\":5", "\"weight\":\"5\"");
    assert!(serde::json::from_str::<CellResult>(&mistyped).is_err());
}
