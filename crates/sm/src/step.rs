//! Step objects and the deterministic transition function (§4.1).
//!
//! A [`Step`] names a thread and either an instruction execution (carrying
//! the values consumed by every nondeterministic site, in evaluation order)
//! or an asynchronous store-buffer drain. [`next_state`] is a *total
//! deterministic function* of `(state, step)` — a disabled or stuck step
//! returns the state unchanged — which is exactly the NextState function the
//! paper's proofs rely on. [`try_step`] is the partial variant used by the
//! explorers.

use armada_lang::ast::{Expr, ExprKind, Type};
use armada_lang::pretty::expr_to_string;

use crate::eval::{count_nondet_sites, EvalCtx, EvalErr, Place, PlaceBase};
use crate::heap::{Location, MemNode, PtrVal, RootKind};
use crate::program::{Instr, Pc, Program};
use crate::state::{
    BufferedWrite, Frame, LocalCell, ProgState, Termination, ThreadState, ThreadStatus, Tid,
    MAIN_TID,
};
use crate::value::{UbReason, Value};
use std::sync::Arc;

/// Upper bound on `calloc` lengths the model executes.
const MAX_CALLOC: i128 = 100_000;

/// What a step does.
#[derive(Debug, Clone, PartialEq)]
pub enum StepKind {
    /// Execute the instruction at the thread's PC. `nondets` holds one value
    /// per nondeterministic site consumed, in evaluation order.
    Instr {
        /// Values for `*` sites and unsolved `somehow` havoc targets.
        nondets: Vec<Value>,
    },
    /// Apply the oldest entry of the thread's store buffer to memory.
    Drain,
}

/// A step object: thread plus action. All nondeterminism of the transition
/// relation is encapsulated here.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The acting thread.
    pub tid: Tid,
    /// The action.
    pub kind: StepKind,
}

impl Step {
    /// An instruction step with no nondeterminism.
    pub fn instr(tid: Tid) -> Step {
        Step {
            tid,
            kind: StepKind::Instr {
                nondets: Vec::new(),
            },
        }
    }

    /// An instruction step with the given nondet values.
    pub fn instr_with(tid: Tid, nondets: Vec<Value>) -> Step {
        Step {
            tid,
            kind: StepKind::Instr { nondets },
        }
    }

    /// A store-buffer drain step.
    pub fn drain(tid: Tid) -> Step {
        Step {
            tid,
            kind: StepKind::Drain,
        }
    }
}

/// The thread (if any) that currently blocks all others: it is inside an
/// atomic region and not parked at a yield point.
pub fn atomic_blocker(program: &Program, state: &ProgState) -> Option<Tid> {
    for (tid, thread) in &state.threads {
        if thread.status == ThreadStatus::Active && thread.atomic_depth > 0 {
            match program.instr_at(thread.pc) {
                Some(Instr::YieldPoint) => continue,
                _ => return Some(*tid),
            }
        }
    }
    None
}

/// The deterministic total transition function: applies `step` to `state`,
/// returning the unchanged state when the step is disabled or stuck.
pub fn next_state(program: &Program, state: &ProgState, step: &Step) -> ProgState {
    try_step(program, state, step, usize::MAX).unwrap_or_else(|| state.clone())
}

/// Applies `step` if it is enabled. `max_buffer` models the finite hardware
/// store buffer: a buffered write is disabled (the processor stalls) while
/// the buffer is full.
pub fn try_step(
    program: &Program,
    state: &ProgState,
    step: &Step,
    max_buffer: usize,
) -> Option<ProgState> {
    try_step_with_blocker(
        program,
        state,
        step,
        max_buffer,
        atomic_blocker(program, state),
    )
}

/// [`try_step`] with the state's [`atomic_blocker`] precomputed — the
/// blocker is a property of the state alone, and enumeration calls
/// `try_step` once per candidate, so recomputing the thread scan per
/// candidate is pure waste on the hottest path.
pub(crate) fn try_step_with_blocker(
    program: &Program,
    state: &ProgState,
    step: &Step,
    max_buffer: usize,
    blocker: Option<Tid>,
) -> Option<ProgState> {
    if state.is_terminal() {
        return None;
    }
    if let Some(blocker) = blocker {
        if blocker != step.tid {
            return None;
        }
    }
    match &step.kind {
        StepKind::Drain => {
            let thread = state.thread(step.tid)?;
            if thread.buffer.is_empty() {
                return None;
            }
            let mut new_state = state.clone();
            new_state.drain_one(step.tid).ok()?;
            Some(new_state)
        }
        StepKind::Instr { nondets } => {
            let thread = state.thread(step.tid)?;
            if thread.status != ThreadStatus::Active {
                return None;
            }
            let instr = program.instr_at(thread.pc)?;
            match exec_instr(program, state, step.tid, instr, nondets, max_buffer) {
                Ok(new_state) => Some(new_state),
                Err(ExecStop::Disabled) => None,
                Err(ExecStop::Terminal(term)) => {
                    let mut new_state = state.clone();
                    new_state.termination = term;
                    Some(new_state)
                }
            }
        }
    }
}

enum ExecStop {
    /// Step not enabled in this state (assume false, join pending, buffer
    /// full, or nondet candidates of the wrong shape).
    Disabled,
    /// The step executes but terminates the program (assert failure or UB).
    Terminal(Termination),
}

fn lift(err: EvalErr) -> ExecStop {
    match err {
        EvalErr::Ub(reason) => ExecStop::Terminal(Termination::UndefinedBehavior(reason)),
        EvalErr::Stuck(_) => ExecStop::Disabled,
    }
}

type ExecResult = Result<ProgState, ExecStop>;

/// What an assignment's right-hand side evaluated to.
enum Evaluated {
    Prim(Value),
    Composite(MemNode),
}

fn exec_instr(
    program: &Program,
    state: &ProgState,
    tid: Tid,
    instr: &Instr,
    nondets: &[Value],
    max_buffer: usize,
) -> ExecResult {
    let pc = state.thread(tid).expect("caller checked").pc;
    let mut ctx = EvalCtx::new(program, state, tid, nondets);
    match instr {
        Instr::Noop | Instr::YieldPoint => advance(state, tid, pc.next()),
        Instr::Jump(target) => advance(state, tid, Pc::new(pc.routine, *target)),
        Instr::AtomicBegin { .. } => {
            let mut new_state = state.clone();
            let thread = new_state.thread_mut(tid);
            thread.atomic_depth += 1;
            thread.pc = pc.next();
            Ok(new_state)
        }
        Instr::AtomicEnd => {
            let mut new_state = state.clone();
            let thread = new_state.thread_mut(tid);
            thread.atomic_depth = thread.atomic_depth.saturating_sub(1);
            thread.pc = pc.next();
            Ok(new_state)
        }
        Instr::Guard {
            cond,
            then_pc,
            else_pc,
        } => {
            let value = ctx.eval(cond).map_err(lift)?;
            let cond = value.as_bool().ok_or(ExecStop::Disabled)?;
            let target = if cond { *then_pc } else { *else_pc };
            advance(state, tid, Pc::new(pc.routine, target))
        }
        Instr::Assert(cond) => {
            let value = ctx.eval(cond).map_err(lift)?;
            match value.as_bool() {
                Some(true) => advance(state, tid, pc.next()),
                Some(false) => Err(ExecStop::Terminal(Termination::AssertFailed(pc))),
                None => Err(ExecStop::Disabled),
            }
        }
        Instr::Assume(cond) => {
            let value = ctx.eval(cond).map_err(lift)?;
            match value.as_bool() {
                Some(true) => advance(state, tid, pc.next()),
                _ => Err(ExecStop::Disabled),
            }
        }
        Instr::Print(args) => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| ctx.eval(a))
                .collect::<Result<_, _>>()
                .map_err(lift)?;
            let mut new_state = state.clone();
            // Log entries are observations, not typed storage: normalize so
            // that a `uint32` 1 and a ghost 1 are the same event and levels
            // of different concreteness stay comparable under R.
            new_state.append_log(values.into_iter().map(crate::eval::normalize_key));
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Fence => {
            let mut new_state = state.clone();
            while new_state.drain_one(tid).map_err(|e| lift(e.into()))? {}
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Assign { lhs, rhs, sc } => {
            // Evaluate all RHSs, then all LHS places, against the pre-state;
            // then apply the writes left to right. A single target (the
            // common case) needs no staging vectors.
            let mut new_state;
            if let ([target], [value_expr]) = (&lhs[..], &rhs[..]) {
                let value = eval_rhs(&mut ctx, value_expr).map_err(lift)?;
                let place = ctx.eval_place(target).map_err(lift)?;
                new_state = state.clone();
                write_evaluated(program, &mut new_state, tid, &place, value, *sc, max_buffer)?;
            } else {
                let mut values = Vec::with_capacity(rhs.len());
                for value_expr in rhs {
                    values.push(eval_rhs(&mut ctx, value_expr).map_err(lift)?);
                }
                let mut places = Vec::with_capacity(lhs.len());
                for target in lhs {
                    places.push(ctx.eval_place(target).map_err(lift)?);
                }
                new_state = state.clone();
                for (place, value) in places.into_iter().zip(values) {
                    write_evaluated(program, &mut new_state, tid, &place, value, *sc, max_buffer)?;
                }
            }
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Malloc { into, ty } => {
            let place = ctx.eval_place(into).map_err(lift)?;
            let mut new_state = state.clone();
            let node = MemNode::zero(ty, &program.structs);
            let id = new_state.heap.alloc(node, RootKind::Malloc);
            let ptr = Value::Ptr(Some(PtrVal::to_root(id)));
            write_value(program, &mut new_state, tid, &place, ptr, false, max_buffer)?;
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Calloc { into, ty, count } => {
            let count = ctx
                .eval(count)
                .map_err(lift)?
                .as_int()
                .ok_or(ExecStop::Disabled)?;
            if count <= 0 {
                return Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                    UbReason::OutOfBounds,
                )));
            }
            if count > MAX_CALLOC {
                return Err(ExecStop::Disabled);
            }
            let place = ctx.eval_place(into).map_err(lift)?;
            let mut new_state = state.clone();
            let elem = MemNode::zero(ty, &program.structs);
            let node = MemNode::Array(vec![elem; count as usize]);
            let id = new_state.heap.alloc(node, RootKind::Calloc);
            let ptr = Value::Ptr(Some(PtrVal {
                object: id,
                path: vec![0],
            }));
            write_value(program, &mut new_state, tid, &place, ptr, false, max_buffer)?;
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Dealloc(target) => {
            let value = ctx.eval(target).map_err(lift)?;
            let ptr = match value {
                Value::Ptr(Some(p)) => p,
                Value::Ptr(None) => {
                    return Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                        UbReason::InvalidDealloc,
                    )))
                }
                _ => return Err(ExecStop::Disabled),
            };
            let mut new_state = state.clone();
            new_state
                .heap
                .dealloc(&ptr)
                .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))?;
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Call {
            routine,
            args,
            into: _,
        } => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| ctx.eval(a))
                .collect::<Result<_, _>>()
                .map_err(lift)?;
            let mut new_state = state.clone();
            let mut frame =
                build_frame(program, &mut new_state, *routine, &values).map_err(lift)?;
            frame.call_pc = Some(pc);
            let thread = new_state.thread_mut(tid);
            thread.push_frame(frame);
            thread.pc = Pc::new(*routine, 0);
            Ok(new_state)
        }
        Instr::Ret { value } => {
            let routine = &program.routines[pc.routine as usize];
            let result = match (value, &routine.ret_ty) {
                (Some(expr), Some(ret_ty)) => Some(ctx.eval(expr).map_err(lift)?.coerce_to(ret_ty)),
                (Some(expr), None) => {
                    let _ = ctx.eval(expr).map_err(lift)?;
                    None
                }
                (None, _) => None,
            };
            let mut new_state = state.clone();
            let thread = new_state.thread_mut(tid);
            let popped = thread.pop_frame();
            // Address-taken locals die with the frame (§3.2.4).
            for cell in popped.locals.iter() {
                if let LocalCell::Obj(id) = cell {
                    new_state.heap.free_static(*id);
                }
            }
            match popped.call_pc {
                None => {
                    // Bottom frame: the thread exits.
                    let thread = new_state.thread_mut(tid);
                    thread.status = ThreadStatus::Exited;
                    if tid == MAIN_TID {
                        new_state.termination = Termination::Exited;
                    }
                    Ok(new_state)
                }
                Some(call_pc) => {
                    let thread = new_state.thread_mut(tid);
                    thread.pc = call_pc.next();
                    // Write the return value into the caller's lvalue.
                    let into = match program.instr_at(call_pc) {
                        Some(Instr::Call { into, .. }) => into.clone(),
                        _ => None,
                    };
                    if let (Some(into), Some(result)) = (into, result) {
                        let mut caller_ctx = EvalCtx::new(program, &new_state, tid, &[]);
                        let place = caller_ctx.eval_place(&into).map_err(lift)?;
                        write_value(
                            program,
                            &mut new_state,
                            tid,
                            &place,
                            result,
                            false,
                            max_buffer,
                        )?;
                    }
                    Ok(new_state)
                }
            }
        }
        Instr::CreateThread {
            into,
            routine,
            args,
        } => {
            let values: Vec<Value> = args
                .iter()
                .map(|a| ctx.eval(a))
                .collect::<Result<_, _>>()
                .map_err(lift)?;
            let into_place = match into {
                Some(target) => Some(ctx.eval_place(target).map_err(lift)?),
                None => None,
            };
            let mut new_state = state.clone();
            let frame = build_frame(program, &mut new_state, *routine, &values).map_err(lift)?;
            let new_tid = new_state.next_tid;
            new_state.next_tid += 1;
            new_state
                .threads
                .insert(new_tid, ThreadState::new(Pc::new(*routine, 0), frame));
            if let Some(place) = into_place {
                write_value(
                    program,
                    &mut new_state,
                    tid,
                    &place,
                    Value::tid(new_tid),
                    false,
                    max_buffer,
                )?;
            }
            set_pc(&mut new_state, tid, pc.next());
            Ok(new_state)
        }
        Instr::Join(handle) => {
            let value = ctx.eval(handle).map_err(lift)?;
            let target = value.as_int().ok_or(ExecStop::Disabled)?;
            if target < 0 {
                return Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                    UbReason::InvalidJoin,
                )));
            }
            match state.thread(target as Tid) {
                Some(thread) if thread.status == ThreadStatus::Exited => {
                    advance(state, tid, pc.next())
                }
                Some(_) => Err(ExecStop::Disabled),
                None => Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                    UbReason::InvalidJoin,
                ))),
            }
        }
        Instr::Somehow {
            requires,
            modifies,
            ensures,
        } => exec_somehow(program, state, tid, requires, modifies, ensures, nondets),
    }
}

fn exec_somehow(
    program: &Program,
    state: &ProgState,
    tid: Tid,
    requires: &[Expr],
    modifies: &[Expr],
    ensures: &[Expr],
    nondets: &[Value],
) -> ExecResult {
    let pc = state.thread(tid).expect("caller checked").pc;
    let mut ctx = EvalCtx::new(program, state, tid, nondets);
    for clause in requires {
        match ctx.eval(clause).map_err(lift)?.as_bool() {
            Some(true) => {}
            Some(false) => {
                return Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                    UbReason::RequiresViolated,
                )))
            }
            None => return Err(ExecStop::Disabled),
        }
    }
    let places: Vec<Place> = modifies
        .iter()
        .map(|m| ctx.eval_place(m))
        .collect::<Result<_, _>>()
        .map_err(lift)?;
    let mut cursor = ctx.cursor;

    let mut new_state = state.clone();
    for (target, place) in modifies.iter().zip(&places) {
        let value = match somehow_solution(target, ensures) {
            Some(solution) => {
                // Deterministic targets like `log == old(log) + [n]` are
                // computed directly rather than havocked.
                let mut solve_ctx = EvalCtx::new(program, &new_state, tid, &[]).with_old(state);
                match solve_ctx.eval(solution) {
                    Ok(value) => value,
                    Err(EvalErr::Ub(reason)) => {
                        return Err(ExecStop::Terminal(Termination::UndefinedBehavior(reason)))
                    }
                    Err(EvalErr::Stuck(_)) => take_nondet(nondets, &mut cursor)?,
                }
            }
            None => take_nondet(nondets, &mut cursor)?,
        };
        // Somehow is an atomic declarative action: its writes are
        // sequentially consistent (the Figure-8 model runs the whole action
        // in one step).
        write_value(program, &mut new_state, tid, place, value, true, usize::MAX)?;
    }
    // Check the two-state postconditions.
    let mut post_ctx = EvalCtx::new(program, &new_state, tid, &[]).with_old(state);
    for clause in ensures {
        match post_ctx.eval(clause) {
            Ok(Value::Bool(true)) => {}
            Ok(_) => return Err(ExecStop::Disabled),
            Err(EvalErr::Ub(reason)) => {
                return Err(ExecStop::Terminal(Termination::UndefinedBehavior(reason)))
            }
            Err(EvalErr::Stuck(_)) => return Err(ExecStop::Disabled),
        }
    }
    set_pc(&mut new_state, tid, pc.next());
    Ok(new_state)
}

fn take_nondet(nondets: &[Value], cursor: &mut usize) -> Result<Value, ExecStop> {
    let value = nondets.get(*cursor).cloned().ok_or(ExecStop::Disabled)?;
    *cursor += 1;
    Ok(value)
}

/// Finds an `ensures` clause of the form `<target> == e` and returns `e`.
/// The comparison is syntactic (span-insensitive, via pretty-printing).
pub fn somehow_solution<'a>(target: &Expr, ensures: &'a [Expr]) -> Option<&'a Expr> {
    let target_text = expr_to_string(target);
    for clause in ensures {
        if let ExprKind::Binary(armada_lang::ast::BinOp::Eq, lhs, rhs) = &clause.kind {
            if expr_to_string(lhs) == target_text {
                return Some(rhs);
            }
            if expr_to_string(rhs) == target_text {
                return Some(lhs);
            }
        }
    }
    None
}

fn eval_rhs(ctx: &mut EvalCtx<'_>, expr: &Expr) -> Result<Evaluated, EvalErr> {
    // An lvalue-shaped RHS may denote a composite (struct/array copy).
    if matches!(
        expr.kind,
        ExprKind::Var(_) | ExprKind::Deref(_) | ExprKind::Field(_, _) | ExprKind::Index(_, _)
    ) {
        if let Ok(place) = ctx.eval_place(expr) {
            match ctx.read_place_node(&place)? {
                MemNode::Leaf(value) => return Ok(Evaluated::Prim(value)),
                composite => return Ok(Evaluated::Composite(composite)),
            }
        }
    }
    Ok(Evaluated::Prim(ctx.eval(expr)?))
}

fn advance(state: &ProgState, tid: Tid, pc: Pc) -> ExecResult {
    let mut new_state = state.clone();
    set_pc(&mut new_state, tid, pc);
    Ok(new_state)
}

fn set_pc(state: &mut ProgState, tid: Tid, pc: Pc) {
    state.thread_mut(tid).pc = pc;
}

/// Writes a primitive value at a place. Heap writes go through the store
/// buffer unless `sc`; a full buffer disables the step (the processor
/// stalls). Values are coerced to the type of the location's current
/// occupant, modeling assignment-width wrapping.
/// Writes an evaluated right-hand side at a place.
fn write_evaluated(
    program: &Program,
    state: &mut ProgState,
    tid: Tid,
    place: &Place,
    value: Evaluated,
    sc: bool,
    max_buffer: usize,
) -> Result<(), ExecStop> {
    match value {
        Evaluated::Prim(value) => write_value(program, state, tid, place, value, sc, max_buffer),
        Evaluated::Composite(node) => write_node(state, tid, place, node),
    }
}

fn write_value(
    program: &Program,
    state: &mut ProgState,
    tid: Tid,
    place: &Place,
    value: Value,
    sc: bool,
    max_buffer: usize,
) -> Result<(), ExecStop> {
    match &place.base {
        PlaceBase::Local(slot) => {
            let cell = state.thread_mut(tid).top_frame_mut().local_mut(*slot);
            let node = match cell {
                LocalCell::Val(node) => node,
                LocalCell::Obj(_) => unreachable!("Obj cells resolve to heap places"),
            };
            let target = node
                .descend_mut(&place.path)
                .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))?;
            let coerced = coerce_like(target, value).ok_or(ExecStop::Disabled)?;
            *target = MemNode::Leaf(coerced);
            Ok(())
        }
        PlaceBase::Ghost(slot) => {
            let coerced = match program.ghosts.get(*slot) {
                Some(ghost) => value.coerce_to(&ghost.ty),
                None => value,
            };
            Arc::make_mut(&mut state.ghosts)[*slot] = coerced;
            Ok(())
        }
        PlaceBase::Heap(object) => {
            let loc = Location {
                object: *object,
                path: place.path.clone(),
            };
            // Validate the destination and fetch its occupant for coercion.
            let occupant = state
                .heap
                .read(&loc)
                .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))?;
            let coerced = coerce_like(occupant, value).ok_or(ExecStop::Disabled)?;
            match occupant {
                MemNode::Leaf(_) => {}
                _ => {
                    return Err(ExecStop::Terminal(Termination::UndefinedBehavior(
                        UbReason::OutOfBounds,
                    )))
                }
            }
            if sc {
                state
                    .heap
                    .write_leaf(&loc, coerced)
                    .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))?;
            } else {
                if state.thread(tid).expect("active thread").buffer.len() >= max_buffer {
                    return Err(ExecStop::Disabled);
                }
                state.thread_mut(tid).push_write(BufferedWrite {
                    loc,
                    value: coerced,
                });
            }
            Ok(())
        }
    }
}

/// Writes a composite node (struct/array copy). Composite stores bypass the
/// store buffer: hardware cannot buffer a multi-word store atomically, and
/// core Armada's one-shared-access rule keeps compiled code away from this;
/// proof levels use it for whole-object ghost manipulation.
fn write_node(
    state: &mut ProgState,
    tid: Tid,
    place: &Place,
    node: MemNode,
) -> Result<(), ExecStop> {
    match &place.base {
        PlaceBase::Local(slot) => {
            let cell = match state.thread_mut(tid).top_frame_mut().local_mut(*slot) {
                LocalCell::Val(existing) => existing,
                LocalCell::Obj(_) => unreachable!("Obj cells resolve to heap places"),
            };
            let target = cell
                .descend_mut(&place.path)
                .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))?;
            *target = node;
            Ok(())
        }
        PlaceBase::Heap(object) => {
            let loc = Location {
                object: *object,
                path: place.path.clone(),
            };
            state
                .heap
                .write(&loc, node)
                .map_err(|r| ExecStop::Terminal(Termination::UndefinedBehavior(r)))
        }
        PlaceBase::Ghost(_) => Err(ExecStop::Disabled),
    }
}

/// Coerces `value` to match the type of the occupant leaf. A shape mismatch
/// (boolean into an integer cell, pointer into a boolean, …) yields `None`;
/// callers disable the step, which prunes ill-typed nondet candidates
/// during enumeration.
fn coerce_like(occupant: &MemNode, value: Value) -> Option<Value> {
    match occupant {
        MemNode::Leaf(Value::Int { ty, .. }) => {
            if value.is_numeric() {
                Some(value.coerce_to(&Type::Int(*ty)))
            } else {
                None
            }
        }
        MemNode::Leaf(Value::MathInt(_)) => {
            if value.is_numeric() {
                Some(value.coerce_to(&Type::MathInt))
            } else {
                None
            }
        }
        MemNode::Leaf(Value::Bool(_)) => matches!(value, Value::Bool(_)).then_some(value),
        MemNode::Leaf(Value::Ptr(_)) => matches!(value, Value::Ptr(_)).then_some(value),
        _ => Some(value),
    }
}

/// Builds a frame for `routine` with `args` as its leading locals. Allocates
/// heap objects for address-taken locals (which makes frame construction
/// part of the state transition, as in the paper where uninitialized locals
/// are step-object fields).
pub fn build_frame(
    program: &Program,
    state: &mut ProgState,
    routine: u32,
    args: &[Value],
) -> Result<Frame, EvalErr> {
    let def = program
        .routines
        .get(routine as usize)
        .ok_or_else(|| EvalErr::Stuck("unknown routine".into()))?;
    if args.len() != def.param_count {
        return Err(EvalErr::Stuck(format!(
            "routine `{}` expects {} arguments, got {}",
            def.name,
            def.param_count,
            args.len()
        )));
    }
    // A mapped slice iterator has a known length: the locals slice is
    // built in one allocation.
    let locals = def
        .locals
        .iter()
        .enumerate()
        .map(|(index, local)| {
            let node = if index < def.param_count {
                MemNode::Leaf(args[index].clone().coerce_to(&local.ty))
            } else {
                MemNode::zero(&local.ty, &program.structs)
            };
            if local.addr_taken {
                LocalCell::Obj(state.heap.alloc(node, RootKind::Static))
            } else {
                LocalCell::Val(node)
            }
        })
        .collect();
    Ok(Frame {
        routine,
        locals,
        call_pc: None,
    })
}

/// The maximum number of nondet values `instr` can consume: its syntactic
/// `*` sites plus one per `somehow` havoc target without a solvable
/// `ensures` equation.
pub fn max_nondet_sites(instr: &Instr) -> usize {
    match instr {
        Instr::Assign { lhs, rhs, .. } => {
            lhs.iter().map(count_nondet_sites).sum::<usize>()
                + rhs.iter().map(count_nondet_sites).sum::<usize>()
        }
        Instr::Guard { cond, .. } | Instr::Assert(cond) | Instr::Assume(cond) => {
            count_nondet_sites(cond)
        }
        Instr::Somehow {
            requires,
            modifies,
            ensures,
        } => {
            let syntactic: usize = requires
                .iter()
                .chain(modifies.iter())
                .map(count_nondet_sites)
                .sum();
            let unsolved = modifies
                .iter()
                .filter(|m| somehow_solution(m, ensures).is_none())
                .count();
            syntactic + unsolved
        }
        Instr::Call { args, .. } | Instr::Print(args) => args.iter().map(count_nondet_sites).sum(),
        Instr::CreateThread { args, into, .. } => {
            args.iter().map(count_nondet_sites).sum::<usize>()
                + into.as_ref().map(count_nondet_sites).unwrap_or(0)
        }
        Instr::Calloc { count, into, .. } => count_nondet_sites(count) + count_nondet_sites(into),
        Instr::Malloc { into, .. } => count_nondet_sites(into),
        Instr::Dealloc(target) | Instr::Join(target) => count_nondet_sites(target),
        Instr::Ret { value } => value.as_ref().map(count_nondet_sites).unwrap_or(0),
        _ => 0,
    }
}

/// Enumerates the enabled steps of `state` together with their successor
/// states, drawing nondet values from `pool`.
pub fn enabled_steps(
    program: &Program,
    state: &ProgState,
    pool: &[Value],
    max_buffer: usize,
) -> Vec<(Step, ProgState)> {
    let mut out = Vec::new();
    if state.is_terminal() {
        return out;
    }
    let blocker = atomic_blocker(program, state);
    for (&tid, thread) in &state.threads {
        // Drain step.
        if !thread.buffer.is_empty() {
            let step = Step::drain(tid);
            if let Some(next) = try_step_with_blocker(program, state, &step, max_buffer, blocker) {
                out.push((step, next));
            }
        }
        if thread.status != ThreadStatus::Active {
            continue;
        }
        let instr = match program.instr_at(thread.pc) {
            Some(instr) => instr,
            None => continue,
        };
        let sites = max_nondet_sites(instr);
        if sites == 0 {
            let step = Step::instr(tid);
            if let Some(next) = try_step_with_blocker(program, state, &step, max_buffer, blocker) {
                out.push((step, next));
            }
        } else {
            let mut tuple = Vec::with_capacity(sites);
            enumerate_tuples(
                program, state, tid, pool, sites, &mut tuple, max_buffer, blocker, &mut out,
            );
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn enumerate_tuples(
    program: &Program,
    state: &ProgState,
    tid: Tid,
    pool: &[Value],
    remaining: usize,
    tuple: &mut Vec<Value>,
    max_buffer: usize,
    blocker: Option<Tid>,
    out: &mut Vec<(Step, ProgState)>,
) {
    if remaining == 0 {
        // The tuple moves into the candidate step and back out of it; it is
        // copied only for a step that is enabled.
        let step = Step::instr_with(tid, std::mem::take(tuple));
        let next = try_step_with_blocker(program, state, &step, max_buffer, blocker);
        let StepKind::Instr { nondets } = step.kind else {
            unreachable!("built as an instruction step")
        };
        match next {
            Some(next) => {
                tuple.clone_from(&nondets);
                out.push((Step::instr_with(tid, nondets), next));
            }
            None => *tuple = nondets,
        }
        return;
    }
    for candidate in pool {
        tuple.push(candidate.clone());
        enumerate_tuples(
            program,
            state,
            tid,
            pool,
            remaining - 1,
            tuple,
            max_buffer,
            blocker,
            out,
        );
        tuple.pop();
    }
}
