//! Metrics as the benchmark reports them: name, unit, direction, bound,
//! value, and a free-text note (sample counts, window quartiles).

use precursor_obs::JsonWriter;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which a later change may worsen the
    /// metric; end-to-end metrics only.
    pub bound: Option<f64>,
    pub value: f64,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, better: Better, value: f64) -> Metric {
        Metric {
            name,
            unit,
            better,
            bound: None,
            value,
            note: String::new(),
        }
    }

    pub fn lower(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Better::Lower, value)
    }

    pub fn higher(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric::new(name, unit, Better::Higher, value)
    }

    pub fn bound(mut self, bound: f64) -> Metric {
        self.bound = Some(bound);
        self
    }

    pub fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// One workload's outcome in one mode (end-to-end or per-layer).
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (values, statuses, determinism replay,
    /// span conservation).
    pub correct: bool,
}

pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let arrow = match m.better {
            Better::Higher => '↑',
            Better::Lower => '↓',
        };
        let bound = m
            .bound
            .map(|b| format!(" bound {:.0}%", b * 100.0))
            .unwrap_or_default();
        println!(
            "{workload:<17} {:<30} {:>16.4} {:<7} {arrow}{bound}  {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The one-line result object the driver contract asks for. Names and
/// units are plain ASCII, so nothing needs escaping; a value that is not
/// finite has no JSON form and becomes `null`.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// An array of metrics for `results.json`, under `key`.
pub fn write_metrics(json: &mut JsonWriter, key: &str, metrics: &[Metric]) {
    json.key(key);
    json.begin_array();
    for m in metrics {
        json.begin_object();
        json.key("name");
        json.string(m.name);
        json.key("value");
        json.f64(m.value);
        json.key("unit");
        json.string(m.unit);
        json.key("better");
        json.string(m.better.as_str());
        if let Some(bound) = m.bound {
            json.key("bound");
            json.f64(bound);
        }
        json.key("note");
        json.string(&m.note);
        json.end_object();
    }
    json.end_array();
}
