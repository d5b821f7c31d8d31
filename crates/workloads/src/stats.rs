//! Table 2 workload statistics: text lengths, operator counts and dynamic
//! control-flow parameter counts.

use crate::workload::Workload;
use llmulator_ir::analysis;
use serde::{Deserialize, Serialize};

/// One Table 2 row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Workload name.
    pub name: String,
    /// Character count of the full model input ("All Len").
    pub all_len: usize,
    /// Character count of the dataflow graph program ("Graph Len").
    pub graph_len: usize,
    /// Number of operators in the dataflow graph ("Op Num").
    pub op_num: usize,
    /// Number of dynamic control-flow-related parameters ("Dyn. Num").
    pub dyn_num: usize,
    /// Character count of the operator definitions ("Op Len").
    pub op_len: usize,
}

/// Computes the Table 2 statistics for a workload.
pub fn stats(workload: &Workload) -> WorkloadStats {
    let program = &workload.program;
    let graph_len = program.render_graph().chars().count();
    let op_len = program.render_operators().chars().count();
    let all_len = program.render().chars().count();
    let report = analysis::analyze_program(program);
    WorkloadStats {
        name: workload.name.clone(),
        all_len,
        graph_len,
        op_num: program.graph.op_count(),
        dyn_num: report.dynamic_param_count(program),
        op_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modern;

    #[test]
    fn lengths_decompose_sensibly() {
        for w in modern::all() {
            let s = stats(&w);
            assert!(s.all_len >= s.graph_len + s.op_len, "{}", s.name);
            assert!(s.graph_len > 0 && s.op_len > 0, "{}", s.name);
            assert!(s.op_num > 0, "{}", s.name);
        }
    }

    #[test]
    fn dynamic_counts_nonzero_for_modern_workloads() {
        for w in modern::all() {
            let s = stats(&w);
            assert!(s.dyn_num >= 1, "{} has dynamic control flow", s.name);
        }
    }

    #[test]
    fn t5_is_the_largest_nlp_workload() {
        let all = modern::all();
        let t5 = stats(&all[11]);
        assert_eq!(t5.name, "Tab. 2-12");
        let max_ops = all.iter().map(|w| stats(w).op_num).max().expect("rows");
        assert_eq!(t5.op_num, max_ops, "T5 has the most operators (21)");
    }

    /// Per-operator Class I/II vectors and Table 2 "Dyn. Num" for every
    /// evaluation workload. The separation masks and Table 2 are derived
    /// from exactly these values, so a change to the input-dependence
    /// analysis that moves any of them changes the paper's results.
    #[test]
    fn classes_and_dyn_num_are_pinned() {
        const PINNED: &[(&str, &str, usize)] = &[
            ("adi", "II", 1),
            ("atax", "I", 0),
            ("bicg", "I", 0),
            ("correlation", "I", 0),
            ("covariance", "I", 0),
            ("deriche", "I", 0),
            ("fdtd-2d", "II", 1),
            ("heat-3d", "II", 1),
            ("jacobi-2d", "II", 1),
            ("seidel-2d", "II", 1),
            ("Tab. 2-1", "II I I I I I I I", 2),
            ("Tab. 2-2", "II I I I I I", 2),
            ("Tab. 2-3", "II I I I I I I I", 2),
            ("Tab. 2-4", "I I I I II I I II II I I I", 4),
            ("Tab. 2-5", "I II II I I", 3),
            ("Tab. 2-6", "I I I I I I I I I II I I I", 2),
            ("Tab. 2-7", "I I I I I I II I", 2),
            ("Tab. 2-8", "I I I I I II", 1),
            ("Tab. 2-9", "I I I I II", 2),
            ("Tab. 2-10", "I I I I I I I I II I I I", 1),
            ("Tab. 2-11", "I I I I I I I I I II I I I", 1),
            ("Tab. 2-12", "I I I I I I I I I I I I I I I II I I I I I", 1),
            ("Tab. 2-13", "I I I I I I I I II I", 1),
            ("Tab. 2-14", "I I I I I I II I", 1),
            ("TPU", "I", 0),
            ("Eyeriss", "I", 0),
            ("Shidiannao", "I", 0),
        ];
        let mut all = crate::polybench::all();
        all.extend(modern::all());
        all.extend(crate::accelerators::all());
        let actual: Vec<(String, String, usize)> = all
            .iter()
            .map(|w| {
                let classes: Vec<&str> = analysis::analyze_program(&w.program)
                    .operators
                    .iter()
                    .map(|r| match r.class {
                        analysis::OperatorClass::ClassI => "I",
                        analysis::OperatorClass::ClassII => "II",
                    })
                    .collect();
                (w.name.clone(), classes.join(" "), stats(w).dyn_num)
            })
            .collect();
        let expected: Vec<(String, String, usize)> = PINNED
            .iter()
            .map(|&(name, classes, dyn_num)| (name.to_string(), classes.to_string(), dyn_num))
            .collect();
        assert_eq!(actual, expected);
    }
}
