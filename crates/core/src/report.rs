//! Minimal fixed-width table formatting for experiment reports, plus the
//! JSON hotspot profile emitted by `cli profile`.
//!
//! JSON is emitted by hand: the offline build carries no serde, and the
//! profile is a small, flat structure.

use riscv_core::{Hotspot, PerfCounters};
use std::fmt;

/// A kernel's attributed cycle profile: full performance counters
/// (including the per-class cycle ledger) plus the hot-PC histogram from
/// a traced run.
#[derive(Debug, Clone)]
pub struct HotspotProfile {
    /// Name of the profiled kernel configuration.
    pub kernel: String,
    /// Per-run performance counters; `perf.ledger` carries the per-class
    /// cycle attribution.
    pub perf: PerfCounters,
    /// Hottest static instructions, descending by attributed cycles.
    pub hotspots: Vec<Hotspot>,
}

impl HotspotProfile {
    /// Serializes the profile as a self-contained JSON object.
    ///
    /// The `ledger` object maps each cycle-class name to its cycle
    /// count and includes the sum under `"total"`; by the core's retire
    /// invariant that total equals `"cycles"`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"kernel\": \"{}\",\n",
            escape_json(&self.kernel)
        ));
        s.push_str(&format!("  \"cycles\": {},\n", self.perf.cycles));
        s.push_str(&format!("  \"instret\": {},\n", self.perf.instret));
        s.push_str(&format!("  \"macs\": {},\n", self.perf.total_macs()));
        s.push_str("  \"ledger\": {\n");
        for (class, cycles) in self.perf.ledger.entries() {
            s.push_str(&format!("    \"{}\": {},\n", class.name(), cycles));
        }
        s.push_str(&format!("    \"total\": {}\n", self.perf.ledger.total()));
        s.push_str("  },\n");
        s.push_str("  \"hotspots\": [\n");
        for (i, h) in self.hotspots.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"pc\": \"{:#010x}\", \"disasm\": \"{}\", \"cycles\": {}, \"count\": {}}}{}\n",
                h.pc,
                escape_json(&h.instr.to_string()),
                h.cycles,
                h.count,
                if i + 1 < self.hotspots.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}");
        s
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// A simple text table: headers plus rows, padded per column.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header count.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, " ")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:<width$}", width = w[i])?;
                if i + 1 < cells.len() {
                    write!(f, " |")?;
                }
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let total: usize = w.iter().sum::<usize>() + 3 * w.len() + 1;
        writeln!(f, " {}", "-".repeat(total))?;
        for r in &self.rows {
            line(f, r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_padded_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x", "1"]);
        t.row(&["long-name", "23"]);
        let s = t.to_string();
        assert!(s.contains("name"));
        assert!(s.contains("long-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Columns align: every data line has the separator in the same
        // position.
        let pos1 = lines[2].find('|').unwrap();
        let pos2 = lines[3].find('|').unwrap();
        assert_eq!(pos1, pos2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn profile_json_is_well_formed() {
        use pulp_isa::instr::{AluOp, Instr};
        use pulp_isa::Reg;
        use riscv_core::CycleClass;

        let mut perf = PerfCounters::new();
        perf.cycles = 12;
        perf.instret = 10;
        perf.ledger.charge(CycleClass::Alu, 9);
        perf.ledger.charge(CycleClass::Load, 3);
        let profile = HotspotProfile {
            kernel: "conv-test\"quoted\"".to_string(),
            perf,
            hotspots: vec![Hotspot {
                pc: 0x1c00_8000,
                cycles: 7,
                count: 7,
                instr: Instr::AluImm {
                    op: AluOp::Add,
                    rd: Reg::A0,
                    rs1: Reg::A0,
                    imm: 1,
                },
            }],
        };
        let json = profile.to_json();
        assert!(json.contains("\"cycles\": 12"));
        assert!(json.contains("\"alu\": 9"));
        assert!(json.contains("\"total\": 12"));
        assert!(json.contains("\"pc\": \"0x1c008000\""));
        assert!(json.contains("conv-test\\\"quoted\\\""));
        // Balanced braces/brackets and no trailing commas before closers.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  }"));
        assert!(!json.contains(",\n  ]"));
    }
}
