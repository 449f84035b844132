//! Rendering of the program-specific state-machine text that accompanies
//! every generated proof (§3.2.2, §5).
//!
//! Armada's generated Dafny begins with the full program-specific state
//! machine: a datatype for the state, an enumerated PC type, one step
//! predicate per instruction, and a `NextState` dispatcher. We render the
//! same material in pseudo-Dafny; it is included in each strategy report's
//! prelude, and its size is what the paper's "Armada generates N SLOC of
//! proof" figures measure.

use armada_sm::{Instr, Program};

/// Renders the program-specific state machine for `program`.
pub fn state_machine_text(program: &Program) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "// ===== state machine for level {} =====\n",
        program.name
    ));
    out.push_str(&format!(
        "module StateMachine_{} {{\n",
        sanitize(&program.name)
    ));

    // State datatype.
    out.push_str("  datatype GlobalStaticVars = GlobalStaticVars(\n");
    for global in &program.globals {
        out.push_str(&format!("    {}: {},\n", global.name, global.ty));
    }
    for ghost in &program.ghosts {
        out.push_str(&format!("    ghost {}: {},\n", ghost.name, ghost.ty));
    }
    out.push_str("  )\n");
    for (name, fields) in &program.structs {
        out.push_str(&format!("  datatype Struct_{name} = Struct_{name}(\n"));
        for (field, ty) in fields {
            out.push_str(&format!("    {field}: {ty},\n"));
        }
        out.push_str("  )\n");
    }
    out.push_str("  datatype Termination = Running | Exited | AssertFailed | UB\n");
    out.push_str(
        "  datatype TotalState = TotalState(threads: map<uint64, Thread>, \
         heap: Heap, globals: GlobalStaticVars, log: seq<Event>, stop: Termination)\n",
    );

    // Enumerated PC type (program-specific, §3.2.2).
    out.push_str("  datatype PC =\n");
    for (ri, routine) in program.routines.iter().enumerate() {
        for ii in 0..routine.instrs.len() {
            out.push_str(&format!(
                "    | PC_{}_{}  // r{ri}:{ii}\n",
                sanitize(&routine.name),
                ii
            ));
        }
    }

    // Per-routine stack frames.
    for routine in &program.routines {
        out.push_str(&format!(
            "  datatype Frame_{} = Frame_{}(\n",
            sanitize(&routine.name),
            sanitize(&routine.name)
        ));
        for local in &routine.locals {
            out.push_str(&format!(
                "    {}{}: {},\n",
                if local.ghost { "ghost " } else { "" },
                local.name,
                local.ty
            ));
        }
        out.push_str("  )\n");
    }

    // One step predicate per instruction, with the concrete lvalue/rvalue
    // manifest (this is where most of the generated volume lives).
    for (ri, routine) in program.routines.iter().enumerate() {
        for (ii, instr) in routine.instrs.iter().enumerate() {
            render_step_predicate(&mut out, &routine.name, ri, ii, instr);
        }
    }

    // Step-object datatype encapsulating all nondeterminism (§4.1).
    out.push_str("  datatype Step =\n");
    for routine in &program.routines {
        for ii in 0..routine.instrs.len() {
            out.push_str(&format!(
                "    | Step_{}_{}(tid: uint64, nondets: seq<Value>)\n",
                sanitize(&routine.name),
                ii
            ));
        }
    }
    out.push_str("    | Step_Drain(tid: uint64)\n");

    // Deterministic NextState dispatcher.
    out.push_str("  function NextState(s: TotalState, step: Step): TotalState {\n");
    out.push_str("    match step {\n");
    for routine in &program.routines {
        for ii in 0..routine.instrs.len() {
            out.push_str(&format!(
                "      case Step_{}_{}(tid, nd) => Apply_{}_{}(s, tid, nd)\n",
                sanitize(&routine.name),
                ii,
                sanitize(&routine.name),
                ii
            ));
        }
    }
    out.push_str("      case Step_Drain(tid) => ApplyDrain(s, tid)\n");
    out.push_str("    }\n  }\n");
    out.push_str("}\n");
    out
}

fn render_step_predicate(out: &mut String, routine: &str, ri: usize, ii: usize, instr: &Instr) {
    let name = format!("{}_{}", sanitize(routine), ii);
    out.push_str(&format!(
        "  predicate Step_{name}(s: TotalState, s': TotalState, tid: uint64)\n"
    ));
    out.push_str("  {\n");
    out.push_str("    && s.stop.Running?\n");
    out.push_str("    && tid in s.threads\n");
    out.push_str(&format!(
        "    && s.threads[tid].pc == PC_{name}  // r{ri}:{ii}\n"
    ));
    out.push_str(&format!("    // {}\n", instr.describe()));
    match instr {
        Instr::Assign { sc, lhs, .. } => {
            for (k, _) in lhs.iter().enumerate() {
                out.push_str(&format!(
                    "    && UpdateLhs_{k}(s, s', tid, {})\n",
                    if *sc { "SeqCst" } else { "ViaStoreBuffer" }
                ));
            }
        }
        Instr::Guard {
            then_pc, else_pc, ..
        } => {
            out.push_str(&format!(
                "    && (if guard(s, tid) then pc' == {then_pc} else pc' == {else_pc})\n"
            ));
        }
        Instr::Somehow {
            requires,
            modifies,
            ensures,
        } => {
            out.push_str(&format!(
                "    && |requires| == {} && |modifies| == {} && |ensures| == {}\n",
                requires.len(),
                modifies.len(),
                ensures.len()
            ));
        }
        _ => {}
    }
    out.push_str("    && s' == ApplyStep(s, tid)\n");
    out.push_str("  }\n");
    out.push_str(&format!(
        "  function Apply_{name}(s: TotalState, tid: uint64, nd: seq<Value>): TotalState\n"
    ));
    out.push_str("  {\n    SmallStep(s, tid, nd)\n  }\n");
}

fn sanitize(text: &str) -> String {
    text.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the shared prelude for a proof between two levels: both state
/// machines plus the refinement scaffolding.
pub fn proof_prelude(low: &Program, high: &Program) -> String {
    let mut out = String::new();
    out.push_str(&state_machine_text(low));
    out.push('\n');
    out.push_str(&state_machine_text(high));
    out.push('\n');
    out.push_str("// ===== refinement scaffolding =====\n");
    out.push_str(&format!(
        "predicate RefinementRelation(ls: StateMachine_{}.TotalState, hs: StateMachine_{}.TotalState)\n",
        sanitize(&low.name),
        sanitize(&high.name)
    ));
    out.push_str("{\n  && (ls.stop.UB? ==> hs.stop.UB?)\n  && LogPrefix(ls.log, hs.log)\n}\n");
    out.push_str("function RefinementMap(ls: LState): HState\n");
    out.push_str("predicate Simulates(lb: AnnotatedBehavior, hb: AnnotatedBehavior)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};
    use armada_sm::lower;

    #[test]
    fn prelude_mentions_every_instruction() {
        let module = parse_module(
            r#"level L {
                var x: uint32;
                void main() {
                    x := 1;
                    if (x < 2) { print(x); }
                }
            }"#,
        )
        .unwrap();
        let typed = check_module(&module).unwrap();
        let program = lower(&typed, "L").unwrap();
        let text = state_machine_text(&program);
        let instr_count: usize = program.routines.iter().map(|r| r.instrs.len()).sum();
        let predicates = text.matches("predicate Step_").count();
        assert_eq!(predicates, instr_count);
        assert!(text.contains("datatype PC ="));
        assert!(text.contains("NextState"));
        let sloc = armada_lang::count_sloc(&text);
        assert!(
            sloc > instr_count * 5,
            "prelude should be substantial: {sloc}"
        );
    }
}
