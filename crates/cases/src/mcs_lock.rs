//! §6.3 — the MCSLock case study: a queue lock hand-built from hardware
//! primitives (fetch-and-add for ticket dispensing, a locked store for the
//! hand-off), in which each waiter spins on its *own* slot — the
//! cache-awareness that defines the Mellor-Crummey–Scott design. As in the
//! CertiKOS comparison the paper draws, the lock is not a language
//! primitive: its primitives are modeled as external methods with
//! concurrency-aware bodies.
//!
//! The proof stack mirrors the paper's six transformations in four moves:
//! ghost ownership introduction, ownership annotation (assume
//! introduction), TSO elimination of the protected variable, and finally
//! Cohen–Lamport reduction of the critical section to an atomic block.

use crate::CaseStudy;

/// Model-scale source: one worker plus main, three tickets' worth of slots.
pub const MODEL: &str = r#"
// §6.3 (model scale): ticket-dispensing queue lock; each thread spins on
// its own slot, the releaser enables the next ticket's slot.
level Implementation {
    var x: uint32;
    var tail: uint32;
    var slots: uint32[4];

    // Hardware fetch-and-add (ticket dispenser), modeled by its contract
    // (Figure 8): one atomic declarative action.
    method {:extern} fetch_add_tail() returns (prev: uint32)
        modifies tail
        ensures tail == old(tail) + 1
        ensures prev == old(tail);

    // Hardware locked store (hand-off release); immediately visible.
    method {:extern} release_slot(k: uint32) {
        slots[k] ::= 1;
    }

    void worker() {
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        var t: uint32 := x;
        t := t + 1;
        x := t;
        fence;
        release_slot(ticket + 1);
    }

    void main() {
        release_slot(0);
        var a: uint64 := create_thread worker();
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        var r: uint32 := x;
        print(r);
        fence;
        release_slot(ticket + 1);
        join a;
    }
}

// Level 1: ghost lock ownership, secured after the spin and returned before
// the hand-off.
level Owned {
    var x: uint32;
    var tail: uint32;
    var slots: uint32[4];
    ghost var owner: int;

    method {:extern} fetch_add_tail() returns (prev: uint32)
        modifies tail
        ensures tail == old(tail) + 1
        ensures prev == old(tail);

    method {:extern} release_slot(k: uint32) {
        slots[k] ::= 1;
    }

    void worker() {
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        var t: uint32 := x;
        t := t + 1;
        x := t;
        fence;
        owner := 0;
        release_slot(ticket + 1);
    }

    void main() {
        release_slot(0);
        var a: uint64 := create_thread worker();
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        var r: uint32 := x;
        print(r);
        fence;
        owner := 0;
        release_slot(ticket + 1);
        join a;
    }
}

// Level 2: ownership is annotated at every protected access.
level Annotated {
    var x: uint32;
    var tail: uint32;
    var slots: uint32[4];
    ghost var owner: int;

    method {:extern} fetch_add_tail() returns (prev: uint32)
        modifies tail
        ensures tail == old(tail) + 1
        ensures prev == old(tail);

    method {:extern} release_slot(k: uint32) {
        slots[k] ::= 1;
    }

    void worker() {
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        assume owner == $me;
        var t: uint32 := x;
        t := t + 1;
        x := t;
        fence;
        owner := 0;
        release_slot(ticket + 1);
    }

    void main() {
        release_slot(0);
        var a: uint64 := create_thread worker();
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        assume owner == $me;
        var r: uint32 := x;
        print(r);
        fence;
        owner := 0;
        release_slot(ticket + 1);
        join a;
    }
}

// Level 3: with the ownership discipline established, the protected
// variable's updates become sequentially consistent.
level SeqX {
    var x: uint32;
    var tail: uint32;
    var slots: uint32[4];
    ghost var owner: int;

    method {:extern} fetch_add_tail() returns (prev: uint32)
        modifies tail
        ensures tail == old(tail) + 1
        ensures prev == old(tail);

    method {:extern} release_slot(k: uint32) {
        slots[k] ::= 1;
    }

    void worker() {
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        assume owner == $me;
        var t: uint32 := x;
        t := t + 1;
        x ::= t;
        fence;
        owner := 0;
        release_slot(ticket + 1);
    }

    void main() {
        release_slot(0);
        var a: uint64 := create_thread worker();
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        owner := $me;
        assume owner == $me;
        var r: uint32 := x;
        print(r);
        fence;
        owner := 0;
        release_slot(ticket + 1);
        join a;
    }
}

// Level 4 (spec): the critical section is a single atomic block.
level AtomicCS {
    var x: uint32;
    var tail: uint32;
    var slots: uint32[4];
    ghost var owner: int;

    method {:extern} fetch_add_tail() returns (prev: uint32)
        modifies tail
        ensures tail == old(tail) + 1
        ensures prev == old(tail);

    method {:extern} release_slot(k: uint32) {
        slots[k] ::= 1;
    }

    void worker() {
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        explicit_yield {
            owner := $me;
            assume owner == $me;
            var t: uint32 := x;
            t := t + 1;
            x ::= t;
            fence;
            owner := 0;
            release_slot(ticket + 1);
        }
    }

    void main() {
        release_slot(0);
        var a: uint64 := create_thread worker();
        var ticket: uint32 := fetch_add_tail();
        var ready: uint32 := 0;
        while (ready == 0) {
            ready := slots[ticket];
        }
        explicit_yield {
            owner := $me;
            assume owner == $me;
            var r: uint32 := x;
            print(r);
            fence;
            owner := 0;
            release_slot(ticket + 1);
        }
        join a;
    }
}

proof ImplementationRefinesOwned {
    refinement Implementation Owned
    var_intro owner
}

proof OwnedRefinesAnnotated {
    refinement Owned Annotated
    assume_intro
}

proof AnnotatedRefinesSeqX {
    refinement Annotated SeqX
    tso_elim x "owner == $me"
}

proof SeqXRefinesAtomicCS {
    refinement SeqX AtomicCS
    reduction
}
"#;

/// Paper-scale source: the pointer-based MCS lock with per-node spin
/// locations, CAS, and swap externs (front end only).
pub const PAPER: &str = r#"
level Implementation {
    struct Node {
        locked: uint32;
        next: ptr<Node>;
    }
    var lock_tail: ptr<Node>;
    var counter: uint64;

    // Hardware primitives, as the paper models them (§3.1.4).
    method {:extern} swap_tail(node: ptr<Node>) returns (prev: ptr<Node>)
        modifies lock_tail
        ensures lock_tail == node;
    method {:extern} cas_tail_to_null(expected: ptr<Node>) returns (won: bool)
        modifies lock_tail;

    void acquire(node: ptr<Node>) {
        (*node).locked := 1;
        (*node).next := null;
        var prev: ptr<Node> := swap_tail(node);
        if (prev != null) {
            (*prev).next := node;
            var spin: uint32 := 1;
            while (spin == 1) {
                spin := (*node).locked;
            }
        }
    }

    void release(node: ptr<Node>) {
        var succ: ptr<Node> := (*node).next;
        if (succ == null) {
            var won: bool := cas_tail_to_null(node);
            if (won) {
                return;
            }
            succ := (*node).next;
            while (succ == null) {
                succ := (*node).next;
            }
        }
        fence;
        (*succ).locked := 0;
    }

    void worker() {
        var i: uint32 := 0;
        while (i < 1000) {
            var node: ptr<Node> := malloc(Node);
            acquire(node);
            var c: uint64 := counter;
            c := c + 1;
            counter := c;
            release(node);
            dealloc node;
            i := i + 1;
        }
    }

    void main() {
        var t1: uint64 := create_thread worker();
        var t2: uint64 := create_thread worker();
        var t3: uint64 := create_thread worker();
        worker();
        join t1;
        join t2;
        join t3;
        var r: uint64 := counter;
        print(r);
    }
}
"#;

/// The MCSLock case study.
pub fn case() -> CaseStudy {
    CaseStudy {
        name: "MCSLock",
        description: "Mellor-Crummey and Scott lock built from hardware primitives",
        paper_source: PAPER,
        model_source: MODEL,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_verifies_end_to_end() {
        let (_, report) = case().verify_model().unwrap();
        assert!(report.verified(), "{}", report.failure_summary());
        assert_eq!(report.chain_claim().unwrap(), "Implementation ⊑ AtomicCS");
    }

    #[test]
    fn paper_source_front_end() {
        case().check_paper_source().unwrap();
    }

    #[test]
    fn dropping_the_fence_breaks_tso_elimination() {
        // Without the fence, the buffered write to x may still be pending
        // when ownership is released.
        let broken = MODEL
            .replace("        x := t;\n        fence;", "        x := t;")
            .replace("        x ::= t;\n        fence;", "        x ::= t;");
        let pipeline = armada::Pipeline::from_source(&broken);
        // Structural divergence across levels (a front-end error) is also
        // an acceptable failure mode for this mutation.
        if let Ok(pipeline) = pipeline {
            let report = pipeline.run().unwrap();
            assert!(!report.verified(), "missing fence must break the proof");
        }
    }
}
