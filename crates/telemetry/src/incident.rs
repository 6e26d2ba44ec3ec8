//! Structured incident reports: what exactly happened when a fault or
//! guard trip ended a run.
//!
//! When a defense detects an attack (or the attack crashes the
//! victim), the pass/fail bit answers *whether* the defense worked —
//! the incident report answers *why*. It drains the flight-recorder
//! window into one schema-versioned JSON document carrying:
//!
//! * the randomness **scheme** and every seed needed to replay the run
//!   through the existing seed protocol (`build_seed`, `trng_seed`,
//!   and for campaign trials `campaign_seed` + `round`);
//! * the **layout draw** — the most recent P-BOX row selected per
//!   function, i.e. the stack permutation in force at the fault;
//! * the **frame map** of the victim function — every stack slot of
//!   its live frame (address, size, execution order);
//! * the **faulting access** with segment and offset detail;
//! * the last N **events** from the recorder ring, and how many were
//!   dropped before the window.
//!
//! Reports are deterministic: replaying the same seeds re-derives a
//! byte-identical document (the CI incident gate pins this).
//!
//! # Schema (`smokestack-incident/1`)
//!
//! ```json
//! {
//!   "schema": "smokestack-incident/1",     // required
//!   "scheme": "AES-10",                    // required: Table I label
//!   "exit_class": "fault:guard:f",         // required: canonical exit
//!   "trng_seed": 7,                        // required
//!   "decicycles": 1234,                    // required
//!   "peak_rss": 4096,                      // required
//!   "dropped_events": 0,                   // required
//!   "fault": {"what": "...",               // required: description
//!     "addr": 64, "len": 8, "write": true, // optional: raw access
//!     "segment": "stack", "offset": 40},   // optional: locus
//!   "victim": "f",                         // optional: faulting func
//!   "frame_map": [                         // required (may be empty)
//!     {"name": "buf", "addr": 64, "size": 24}],
//!   "layout_draws": [                      // required (may be empty)
//!     {"func": "f", "row": 4}],
//!   "events": [{"seq":0,"t":0,"ev":"..."}],// required (may be empty)
//!   "defense": "smokestack/AES-10",        // optional: replay context
//!   "attack": "librelp-cve-2018-1000140",  // optional
//!   "build_seed": 1,                       // optional
//!   "campaign_seed": 2,                    // optional
//!   "round": 0                             // optional
//! }
//! ```

use crate::event::Event;
use crate::json::{parse_value, push_json_str, JsonValue};
use crate::recorder::FlightRecorder;

/// Version tag every report carries.
pub const INCIDENT_SCHEMA: &str = "smokestack-incident/1";

/// The faulting access, as far as the fault kind exposes it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultAccess {
    /// Human-readable fault description.
    pub what: String,
    /// Accessed address, for memory faults.
    pub addr: Option<u64>,
    /// Access length in bytes, for memory faults.
    pub len: Option<u64>,
    /// Whether the access was a write, for memory faults.
    pub write: Option<bool>,
    /// Segment the access resolved against (`stack`, `heap`, ...).
    pub segment: Option<String>,
    /// Offset within (or past) that segment.
    pub offset: Option<u64>,
}

/// One stack slot of the victim function's live frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSlot {
    /// Slot name (IR alloca name when the caller can resolve it,
    /// `slot<N>` otherwise).
    pub name: String,
    /// Absolute address the slot was carved at.
    pub addr: u64,
    /// Slot size in bytes.
    pub size: u64,
}

/// A complete incident report (see the module docs for the schema).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncidentReport {
    /// Table I scheme label in force.
    pub scheme: String,
    /// Canonical exit class (`fault:guard:f`, `fault:mem-write`, ...).
    pub exit_class: String,
    /// Per-run TRNG seed (replays the exact layout draws).
    pub trng_seed: u64,
    /// Decicycles charged when the run ended.
    pub decicycles: u64,
    /// Peak resident set, bytes.
    pub peak_rss: u64,
    /// Events overwritten before the retained window.
    pub dropped_events: u64,
    /// The faulting access.
    pub fault: FaultAccess,
    /// The function whose frame was live at the fault (detecting
    /// function for guard/canary trips).
    pub victim: Option<String>,
    /// The victim frame's stack slots, in execution order.
    pub frame_map: Vec<FrameSlot>,
    /// Most recent P-BOX row per function — the layout in force.
    pub layout_draws: Vec<(String, u64)>,
    /// Last-N events, each pre-rendered as one JSON object.
    pub events: Vec<String>,
    /// Defense row label (replay context).
    pub defense: Option<String>,
    /// Attack name (replay context).
    pub attack: Option<String>,
    /// Build seed (replay context).
    pub build_seed: Option<u64>,
    /// Campaign seed the trial's rounds fanned out from.
    pub campaign_seed: Option<u64>,
    /// Zero-based round within the trial that produced this incident.
    pub round: Option<u64>,
}

impl IncidentReport {
    /// Drain `recorder` into a report. `victim` overrides the victim
    /// inference (pass `None` to use the innermost open frame); the
    /// frame map is extracted from the victim's most recent activation
    /// in the event window.
    pub fn from_recorder(
        recorder: &FlightRecorder,
        scheme: &str,
        trng_seed: u64,
        exit_class: &str,
        fault: FaultAccess,
        victim: Option<u32>,
    ) -> IncidentReport {
        let events = recorder.events();
        let victim_id = victim.or_else(|| {
            // Prefer the function whose guard/canary check failed, then
            // the innermost frame open at the fault.
            events
                .iter()
                .rev()
                .find_map(|e| match &e.event {
                    Event::GuardCheck {
                        func,
                        passed: false,
                        ..
                    } => Some(*func),
                    _ => None,
                })
                .or_else(|| recorder.innermost_open())
                .or_else(|| {
                    events.iter().rev().find_map(|e| match &e.event {
                        Event::FuncEnter { func, .. } => Some(*func),
                        _ => None,
                    })
                })
        });

        // Frame map: alloca events of the victim's last activation.
        let mut frame_map = Vec::new();
        if let Some(v) = victim_id {
            let last_enter = events
                .iter()
                .rposition(|e| matches!(&e.event, Event::FuncEnter { func, .. } if *func == v));
            if let Some(start) = last_enter {
                for e in &events[start..] {
                    match &e.event {
                        Event::Alloca { func, addr, size } if *func == v => {
                            frame_map.push(FrameSlot {
                                name: format!("slot{}", frame_map.len()),
                                addr: *addr,
                                size: *size,
                            });
                        }
                        // Stop at the activation's exit, if it got one.
                        Event::FuncExit { func, .. } if *func == v => break,
                        _ => {}
                    }
                }
            }
        }

        let names = recorder.names();
        IncidentReport {
            scheme: scheme.to_string(),
            exit_class: exit_class.to_string(),
            trng_seed,
            decicycles: recorder.stats().run_decicycles.max(),
            peak_rss: recorder.stats().peak_rss,
            dropped_events: recorder.ring().dropped(),
            fault,
            victim: victim_id.map(|v| recorder.func_name(v)),
            frame_map,
            layout_draws: recorder.layout_draws(),
            events: events.iter().map(|e| e.to_json(names)).collect(),
            ..IncidentReport::default()
        }
    }

    /// Render as one JSON line (deterministic field order — replaying
    /// the same seeds yields a byte-identical document).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"schema\":");
        push_json_str(&mut s, INCIDENT_SCHEMA);
        s.push_str(",\"scheme\":");
        push_json_str(&mut s, &self.scheme);
        s.push_str(",\"exit_class\":");
        push_json_str(&mut s, &self.exit_class);
        s.push_str(&format!(
            ",\"trng_seed\":{},\"decicycles\":{},\"peak_rss\":{},\"dropped_events\":{}",
            self.trng_seed, self.decicycles, self.peak_rss, self.dropped_events
        ));
        s.push_str(",\"fault\":{\"what\":");
        push_json_str(&mut s, &self.fault.what);
        if let Some(addr) = self.fault.addr {
            s.push_str(&format!(",\"addr\":{addr}"));
        }
        if let Some(len) = self.fault.len {
            s.push_str(&format!(",\"len\":{len}"));
        }
        if let Some(write) = self.fault.write {
            s.push_str(&format!(",\"write\":{write}"));
        }
        if let Some(seg) = &self.fault.segment {
            s.push_str(",\"segment\":");
            push_json_str(&mut s, seg);
        }
        if let Some(off) = self.fault.offset {
            s.push_str(&format!(",\"offset\":{off}"));
        }
        s.push('}');
        if let Some(victim) = &self.victim {
            s.push_str(",\"victim\":");
            push_json_str(&mut s, victim);
        }
        s.push_str(",\"frame_map\":[");
        for (i, slot) in self.frame_map.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &slot.name);
            s.push_str(&format!(",\"addr\":{},\"size\":{}}}", slot.addr, slot.size));
        }
        s.push_str("],\"layout_draws\":[");
        for (i, (func, row)) in self.layout_draws.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"func\":");
            push_json_str(&mut s, func);
            s.push_str(&format!(",\"row\":{row}}}"));
        }
        s.push_str("],\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(ev);
        }
        s.push(']');
        if let Some(defense) = &self.defense {
            s.push_str(",\"defense\":");
            push_json_str(&mut s, defense);
        }
        if let Some(attack) = &self.attack {
            s.push_str(",\"attack\":");
            push_json_str(&mut s, attack);
        }
        if let Some(seed) = self.build_seed {
            s.push_str(&format!(",\"build_seed\":{seed}"));
        }
        if let Some(seed) = self.campaign_seed {
            s.push_str(&format!(",\"campaign_seed\":{seed}"));
        }
        if let Some(round) = self.round {
            s.push_str(&format!(",\"round\":{round}"));
        }
        s.push('}');
        s
    }

    /// Validate a serialized report against the documented schema.
    /// Returns the parsed document on success, the first violation
    /// otherwise.
    pub fn validate_json(text: &str) -> Result<JsonValue, String> {
        let doc = parse_value(text).ok_or("incident report is not valid JSON")?;
        let obj = doc.as_obj().ok_or("incident report is not a JSON object")?;

        let need_str = |key: &str| -> Result<(), String> {
            obj.get(key)
                .and_then(JsonValue::as_str)
                .map(|_| ())
                .ok_or(format!("missing or non-string field `{key}`"))
        };
        let need_num = |key: &str| -> Result<(), String> {
            obj.get(key)
                .and_then(JsonValue::as_u64)
                .map(|_| ())
                .ok_or(format!("missing or non-numeric field `{key}`"))
        };

        match obj.get("schema").and_then(JsonValue::as_str) {
            Some(INCIDENT_SCHEMA) => {}
            Some(other) => return Err(format!("unknown schema `{other}`")),
            None => return Err("missing `schema` field".to_string()),
        }
        need_str("scheme")?;
        need_str("exit_class")?;
        need_num("trng_seed")?;
        need_num("decicycles")?;
        need_num("peak_rss")?;
        need_num("dropped_events")?;

        let fault = obj
            .get("fault")
            .and_then(JsonValue::as_obj)
            .ok_or("missing or non-object field `fault`")?;
        fault
            .get("what")
            .and_then(JsonValue::as_str)
            .ok_or("fault is missing string field `what`")?;

        let frame_map = obj
            .get("frame_map")
            .and_then(JsonValue::as_arr)
            .ok_or("missing or non-array field `frame_map`")?;
        for slot in frame_map {
            let slot = slot.as_obj().ok_or("frame_map entry is not an object")?;
            slot.get("name")
                .and_then(JsonValue::as_str)
                .ok_or("frame_map entry missing `name`")?;
            slot.get("addr")
                .and_then(JsonValue::as_u64)
                .ok_or("frame_map entry missing `addr`")?;
            slot.get("size")
                .and_then(JsonValue::as_u64)
                .ok_or("frame_map entry missing `size`")?;
        }

        let draws = obj
            .get("layout_draws")
            .and_then(JsonValue::as_arr)
            .ok_or("missing or non-array field `layout_draws`")?;
        for draw in draws {
            let draw = draw.as_obj().ok_or("layout_draws entry is not an object")?;
            draw.get("func")
                .and_then(JsonValue::as_str)
                .ok_or("layout_draws entry missing `func`")?;
            draw.get("row")
                .and_then(JsonValue::as_u64)
                .ok_or("layout_draws entry missing `row`")?;
        }

        let events = obj
            .get("events")
            .and_then(JsonValue::as_arr)
            .ok_or("missing or non-array field `events`")?;
        for ev in events {
            let ev = ev.as_obj().ok_or("events entry is not an object")?;
            for key in ["seq", "t"] {
                ev.get(key)
                    .and_then(JsonValue::as_u64)
                    .ok_or(format!("events entry missing `{key}`"))?;
            }
            ev.get("ev")
                .and_then(JsonValue::as_str)
                .ok_or("events entry missing `ev`")?;
        }

        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::GuardKind;
    use crate::recorder::RecorderConfig;

    fn sample_report() -> IncidentReport {
        IncidentReport {
            scheme: "AES-10".to_string(),
            exit_class: "fault:guard:parse".to_string(),
            trng_seed: 7,
            decicycles: 1234,
            peak_rss: 4096,
            dropped_events: 2,
            fault: FaultAccess {
                what: "guard word smashed in parse".to_string(),
                addr: Some(0x7fff_f020),
                len: Some(8),
                write: Some(true),
                segment: Some("stack".to_string()),
                offset: Some(64),
            },
            victim: Some("parse".to_string()),
            frame_map: vec![
                FrameSlot {
                    name: "buf".to_string(),
                    addr: 0x7fff_f000,
                    size: 24,
                },
                FrameSlot {
                    name: "len".to_string(),
                    addr: 0x7fff_f020,
                    size: 8,
                },
            ],
            layout_draws: vec![("parse".to_string(), 4)],
            events: vec![
                "{\"seq\":0,\"t\":0,\"ev\":\"func_enter\",\"func\":\"parse\",\"depth\":1}"
                    .to_string(),
            ],
            defense: Some("smokestack/AES-10".to_string()),
            attack: Some("librelp-cve-2018-1000140".to_string()),
            build_seed: Some(11),
            campaign_seed: Some(22),
            round: Some(3),
        }
    }

    #[test]
    fn report_serializes_and_validates() {
        let json = sample_report().to_json();
        assert_eq!(json.lines().count(), 1);
        let doc = IncidentReport::validate_json(&json).expect("schema-valid");
        assert_eq!(
            doc.get("scheme").and_then(JsonValue::as_str),
            Some("AES-10")
        );
        assert_eq!(
            doc.get("fault")
                .and_then(|f| f.get("segment"))
                .and_then(JsonValue::as_str),
            Some("stack")
        );
        assert_eq!(doc.get("frame_map").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample_report().to_json(), sample_report().to_json());
    }

    #[test]
    fn validation_flags_violations() {
        assert!(IncidentReport::validate_json("nope").is_err());
        assert!(IncidentReport::validate_json("{}")
            .unwrap_err()
            .contains("schema"));
        let mut r = sample_report();
        r.fault.what = String::new(); // empty is fine — still a string
        assert!(IncidentReport::validate_json(&r.to_json()).is_ok());
        // Breaking the schema tag is caught.
        let bad = r
            .to_json()
            .replace(INCIDENT_SCHEMA, "smokestack-incident/99");
        assert!(IncidentReport::validate_json(&bad)
            .unwrap_err()
            .contains("unknown schema"));
        // A frame-map entry missing `size` is caught.
        let bad = sample_report().to_json().replace(",\"size\":24", "");
        assert!(IncidentReport::validate_json(&bad)
            .unwrap_err()
            .contains("size"));
    }

    #[test]
    fn from_recorder_extracts_victim_frame_and_layout() {
        let alu = |n: u64| [0, 0, n, 0, 0, 0];
        let mut r = FlightRecorder::new(RecorderConfig { ring_capacity: 64 });
        r.on_functions(&["main".to_string(), "parse".to_string()]);
        r.on_event(&alu(0), &Event::FuncEnter { func: 0, depth: 1 });
        r.on_event(&alu(5), &Event::PboxSelect { func: 1, index: 3 });
        r.on_event(&alu(6), &Event::FuncEnter { func: 1, depth: 2 });
        r.on_event(
            &alu(7),
            &Event::Alloca {
                func: 1,
                addr: 0x7fff_f000,
                size: 24,
            },
        );
        r.on_event(
            &alu(8),
            &Event::Alloca {
                func: 1,
                addr: 0x7fff_f018,
                size: 8,
            },
        );
        r.on_event(
            &alu(90),
            &Event::GuardCheck {
                func: 1,
                kind: GuardKind::Word,
                passed: false,
            },
        );
        r.on_event(
            &alu(91),
            &Event::Fault {
                what: "guard violation in parse".to_string(),
            },
        );
        r.on_event(
            &alu(91),
            &Event::RunEnd {
                peak_rss: 8192,
                decicycles: 91,
            },
        );

        let report = IncidentReport::from_recorder(
            &r,
            "AES-1",
            42,
            "fault:guard:parse",
            FaultAccess {
                what: "guard violation in parse".to_string(),
                ..FaultAccess::default()
            },
            None,
        );
        assert_eq!(report.victim.as_deref(), Some("parse"));
        assert_eq!(report.frame_map.len(), 2);
        assert_eq!(report.frame_map[0].addr, 0x7fff_f000);
        assert_eq!(report.frame_map[1].size, 8);
        assert_eq!(report.layout_draws, vec![("parse".to_string(), 3)]);
        assert_eq!(report.decicycles, 91);
        assert_eq!(report.peak_rss, 8192);
        assert_eq!(report.events.len(), 8);
        IncidentReport::validate_json(&report.to_json()).expect("schema-valid");
    }
}
