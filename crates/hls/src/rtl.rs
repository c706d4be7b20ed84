//! Emission of a Verilog-subset FSMD (finite-state machine + datapath)
//! description for a scheduled, bound accelerator.
//!
//! The emitted text is the final artifact a real flow would hand to logic
//! synthesis. It is structurally faithful — state register sized from the
//! schedule, one `case` arm per control step, operand wiring from the
//! binding — and syntactically well-formed (balanced `begin`/`end`,
//! declared wires), which the tests check.
//!
//! A **control step** is a cycle in which the controller does something:
//! an op issues, or the block finishes. Cycles are not control steps. A
//! nested loop is one macro node whose latency is the whole loop, so a
//! schedule can span millions of cycles while only a handful of them
//! issue anything; the FSM gets one arm per control step, labelled with
//! its cycle number, and sits out the idle stretch between two steps in
//! the earlier arm by counting `wait_cnt` up to the gap. The text
//! therefore grows with the node count, never with the trip counts,
//! while `state` still holds a cycle number (`S_IDLE` = schedule length)
//! and the machine still takes exactly `schedule.len` cycles from
//! `start` to `done`.

use crate::binding::Binding;
use crate::cdfg::Dfg;
use crate::schedule::Schedule;
use std::fmt::Write;

/// `writeln!` into the RTL `String`. Writing to a `String` cannot fail, so
/// the always-`Ok` result is dropped; the line is formatted in place, with
/// no allocation of its own.
macro_rules! emit {
    ($v:expr, $($fmt:tt)*) => {{
        let _ = writeln!($v, $($fmt)*);
    }};
}

/// Emits a Verilog module named `name` for one scheduled block.
pub(crate) fn emit_module(name: &str, dfg: &Dfg, schedule: &Schedule, binding: &Binding) -> String {
    let mut v = String::new();
    let states = schedule.len.max(1);
    let state_bits = 64 - (states.max(2) - 1).leading_zeros() as u64;
    let last = states - 1;

    // Nodes in issue order (ties keep program order), and the control
    // steps: cycle 0, every cycle that issues an op, and the final cycle.
    // A zero-latency op scheduled at the very end issues in the final step.
    let issue_cycle = |id: usize| schedule.start.get(id).map_or(last, |s| (*s).min(last));
    let mut order: Vec<usize> = (0..dfg.len()).collect();
    order.sort_by_key(|id| issue_cycle(*id));
    let mut steps: Vec<u64> = vec![0];
    steps.extend(order.iter().map(|id| issue_cycle(*id)));
    steps.push(last);
    steps.dedup();
    let longest_wait = steps.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0);

    emit!(v, "// Generated by everest-hls (FSMD emission)");
    emit!(v, "module {name} (");
    emit!(v, "  input  wire clk,");
    emit!(v, "  input  wire rst,");
    emit!(v, "  input  wire start,");
    emit!(v, "  output reg  done");
    emit!(v, ");");
    emit!(v, "  reg [{}:0] state;", state_bits.saturating_sub(1));
    emit!(v, "  localparam S_IDLE = {states};");
    if longest_wait > 0 {
        let wait_bits = 64 - longest_wait.leading_zeros();
        emit!(v, "  reg [{}:0] wait_cnt; // idle cycles spent in a control step", wait_bits - 1);
    }

    // Datapath registers: one per SSA result of a latency-bearing op.
    for (id, node) in dfg.nodes.iter().enumerate() {
        for (ri, _) in node.results.iter().enumerate() {
            emit!(v, "  reg [63:0] r_{id}_{ri}; // {}", node.name);
        }
    }
    // Functional unit instances.
    for (kind, count) in binding.allocation.iter() {
        for i in 0..count {
            emit!(v, "  // functional unit: {kind} #{i}");
            emit!(v, "  reg [63:0] fu_{kind}_{i}_out;");
        }
    }

    emit!(v, "  always @(posedge clk) begin");
    emit!(v, "    if (rst) begin");
    emit!(v, "      state <= S_IDLE;");
    emit!(v, "      done <= 1'b0;");
    if longest_wait > 0 {
        emit!(v, "      wait_cnt <= 0;");
    }
    emit!(v, "    end else begin");
    emit!(v, "      case (state)");
    emit!(v, "        S_IDLE: if (start) begin state <= 0; done <= 1'b0; end");
    let mut issuing = order.iter().copied().peekable();
    for (si, &cycle) in steps.iter().enumerate() {
        // Idle cycles to sit out in this arm before the next control step.
        let wait = steps.get(si + 1).map_or(0, |next| next - cycle - 1);
        emit!(v, "        {cycle}: begin");
        // An arm that waits issues its ops on its first cycle only.
        let pad = if wait > 0 {
            emit!(v, "          if (wait_cnt == 0) begin");
            "            "
        } else {
            "          "
        };
        while let Some(id) = issuing.next_if(|id| issue_cycle(*id) == cycle) {
            let node = &dfg.nodes[id];
            let fu = binding
                .assignment
                .get(id)
                .and_then(|a| *a)
                .map(|(k, i)| format!("fu_{k}_{i}"))
                .unwrap_or_else(|| "wire_only".to_owned());
            let operands: Vec<String> = node.operands.iter().map(|o| format!("v{}", o.0)).collect();
            emit!(v, "{pad}// issue {} on {} ({})", node.name, fu, operands.join(", "));
            for (ri, _) in node.results.iter().enumerate() {
                emit!(v, "{pad}r_{id}_{ri} <= {fu}_out;");
            }
        }
        match steps.get(si + 1) {
            None => emit!(v, "          state <= S_IDLE; done <= 1'b1;"),
            Some(next) if wait == 0 => emit!(v, "          state <= {next};"),
            Some(next) => {
                emit!(v, "          end");
                emit!(v, "          // wait {wait} idle cycles");
                emit!(
                    v,
                    "          if (wait_cnt == {wait}) begin wait_cnt <= 0; state <= {next}; end"
                );
                emit!(v, "          else wait_cnt <= wait_cnt + 1;");
            }
        }
        emit!(v, "        end");
    }
    emit!(v, "        default: state <= S_IDLE;");
    emit!(v, "      endcase");
    emit!(v, "    end");
    emit!(v, "  end");
    emit!(v, "endmodule");
    v
}

/// Quick structural sanity check of emitted RTL: balanced begin/end,
/// module/endmodule and case/endcase pairing.
pub fn check_structure(rtl: &str) -> bool {
    let count = |needle: &str| rtl.matches(needle).count();
    let begins = count("begin");
    let ends = count(" end") + count("\nend");
    count("module") >= 1
        && count("endmodule") == 1
        && count("case (") == count("endcase")
        && begins <= ends + count("endmodule")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::bind;
    use crate::schedule::{list_schedule, ResourceBudget};
    use everest_ir::{FuncBuilder, Type};

    /// `p = a * b; q = p + a`, with the multiply's latency overridden
    /// when `mul_latency` is given (a stand-in for a loop macro node).
    fn sample_with(mul_latency: Option<u64>) -> (Dfg, Schedule, Binding) {
        let mut fb = FuncBuilder::new("f", &[Type::F64, Type::F64], &[Type::F64]);
        let p = fb.binary("arith.mulf", fb.arg(0), fb.arg(1), Type::F64);
        let q = fb.binary("arith.addf", p, fb.arg(0), Type::F64);
        fb.ret(&[q]);
        let f = fb.finish();
        let mut dfg = Dfg::from_block(f.body.entry().unwrap(), &[]);
        if let Some(latency) = mul_latency {
            dfg.nodes[0].latency = latency;
        }
        let s = list_schedule(&dfg, &ResourceBudget::default()).unwrap();
        let b = bind(&dfg, &s);
        (dfg, s, b)
    }

    fn sample() -> (Dfg, Schedule, Binding) {
        sample_with(None)
    }

    /// The body of the `case` arm labelled `cycle`.
    fn arm(rtl: &str, cycle: u64) -> &str {
        let head = format!("        {cycle}: begin\n");
        let from = rtl.find(&head).unwrap_or_else(|| panic!("missing state {cycle}")) + head.len();
        &rtl[from..from + rtl[from..].find("\n        end\n").expect("arm is closed")]
    }

    #[test]
    fn emits_module_skeleton() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("axpy", &dfg, &s, &b);
        assert!(rtl.contains("module axpy ("));
        assert!(rtl.contains("endmodule"));
        assert!(rtl.contains("input  wire clk"));
        assert!(rtl.contains("case (state)"));
    }

    /// One arm per issuing cycle (plus the final cycle) and no other;
    /// every gap of more than one cycle is bridged by a counted wait; the
    /// last arm raises `done`.
    #[test]
    fn one_case_arm_per_control_step() {
        for mul_latency in [None, Some(1), Some(5_000_000)] {
            let (dfg, s, b) = sample_with(mul_latency);
            let rtl = emit_module("k", &dfg, &s, &b);
            let mut steps = s.start.clone();
            steps.push(s.len - 1);
            steps.sort_unstable();
            steps.dedup();
            let arms: Vec<u64> = rtl
                .lines()
                .filter_map(|l| l.strip_prefix("        ")?.strip_suffix(": begin")?.parse().ok())
                .collect();
            assert_eq!(arms, steps, "arms are the control steps, in order");
            for w in steps.windows(2) {
                let (body, idle) = (arm(&rtl, w[0]), w[1] - w[0] - 1);
                if idle > 0 {
                    let leave = format!(
                        "if (wait_cnt == {idle}) begin wait_cnt <= 0; state <= {}; end",
                        w[1]
                    );
                    assert!(body.contains(&leave), "state {} must wait {idle}:\n{body}", w[0]);
                    assert!(body.contains("else wait_cnt <= wait_cnt + 1;"));
                } else {
                    assert!(body.contains(&format!("state <= {};", w[1])));
                    assert!(!body.contains("wait_cnt"), "no wait between adjacent steps");
                }
            }
            let last = arm(&rtl, s.len - 1);
            assert!(last.contains("state <= S_IDLE; done <= 1'b1;"));
            assert!(check_structure(&rtl));
            assert!(rtl.len() < 4096, "RTL size follows the node count: {} bytes", rtl.len());
        }
    }

    #[test]
    fn fu_instances_declared() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(rtl.contains("fu_fmul_0_out"));
        assert!(rtl.contains("fu_fadd_0_out"));
    }

    #[test]
    fn structure_check_passes() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(check_structure(&rtl));
    }

    #[test]
    fn structure_check_fails_on_truncated_text() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        let truncated = &rtl[..rtl.len() / 2];
        assert!(!check_structure(truncated));
    }

    #[test]
    fn done_asserted_in_final_state() {
        let (dfg, s, b) = sample();
        let rtl = emit_module("k", &dfg, &s, &b);
        assert!(rtl.contains("done <= 1'b1;"));
    }
}
