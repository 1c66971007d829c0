//! Name-and-receiver call resolution plus transitive reachability summaries.
//!
//! The resolver maps a [`Recv`]-classified call to candidate [`FnModel`]s:
//! `self.f()` stays inside the enclosing impl type, `Type::f()` resolves
//! against that type's associated functions, `module::f()` (a lowercase
//! qualifier) against the free functions of files named after that module,
//! an unknown-receiver `expr.f()` fans out to every workspace method named
//! `f`, and a bare `f()` to every free function. Fan-out over-approximates on purpose — the rules downstream
//! accept justified suppressions, not missed deadlocks. Direct recursion
//! (`f` resolving to itself) is skipped; mutual recursion is cut by the
//! in-progress marker during summary computation, which under-approximates
//! cycles (documented in DESIGN.md §15).
//!
//! [`reachability`] computes, per function, every lock identity it may
//! transitively acquire and whether it may transitively block, each with a
//! witness call path for the reports.

use std::collections::BTreeMap;

use crate::model::{EventKind, FnModel, Recv};

/// All modeled functions with a by-name index, in deterministic order.
pub struct Workspace {
    /// Function models, sorted by `(file, line)`.
    pub fns: Vec<FnModel>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl Workspace {
    /// Index `fns` (re-sorted by `(file, line)` so resolution order — and
    /// therefore every downstream report — is deterministic).
    pub fn new(mut fns: Vec<FnModel>) -> Self {
        fns.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        Workspace { fns, by_name }
    }

    /// Candidate callees for a call from `caller` to `name` with receiver
    /// shape `recv`. Never includes `caller` itself.
    pub fn resolve(&self, caller: usize, name: &str, recv: &Recv) -> Vec<usize> {
        let Some(cands) = self.by_name.get(name) else { return Vec::new() };
        let caller_ty = self.fns[caller].self_ty.as_deref();
        cands
            .iter()
            .copied()
            .filter(|&j| j != caller)
            .filter(|&j| {
                let ty = self.fns[j].self_ty.as_deref();
                match recv {
                    Recv::SelfDot => ty.is_some() && ty == caller_ty,
                    Recv::Path(m) if m.starts_with(|c: char| c.is_ascii_lowercase()) => {
                        ty.is_none() && module_of(&self.fns[j].file) == m
                    }
                    Recv::Path(t) => {
                        let want = if t == "Self" { caller_ty } else { Some(t.as_str()) };
                        ty.is_some() && ty == want
                    }
                    Recv::Expr => ty.is_some(),
                    Recv::Free => ty.is_none(),
                }
            })
            .collect()
    }
}

/// The module a source file defines: its stem, or its directory for a
/// `mod.rs`.
fn module_of(file: &str) -> &str {
    let mut parts = file.trim_end_matches(".rs").rsplit('/');
    match parts.next() {
        Some("mod") => parts.next().unwrap_or(""),
        Some(stem) => stem,
        None => "",
    }
}

/// One hop of a witness call path: `callee` entered from `file:line`.
#[derive(Debug, Clone)]
pub struct Step {
    /// Qualified callee name (`Type::fn` or `fn`).
    pub callee: String,
    /// Call-site file (the caller's file).
    pub file: String,
    /// Call-site line.
    pub line: usize,
}

/// Witness for a transitively reachable lock acquisition.
#[derive(Debug, Clone)]
pub struct AcquireWitness {
    /// Call path from the summarized function down to the acquiring frame
    /// (empty for an acquisition in the function's own body).
    pub path: Vec<Step>,
    /// File of the acquiring statement.
    pub file: String,
    /// Line of the acquiring statement.
    pub line: usize,
}

/// Witness for a transitively reachable blocking operation.
#[derive(Debug, Clone)]
pub struct BlockWitness {
    /// Operation label (`sync_all`, `recv`, ...).
    pub what: String,
    /// Call path down to the blocking frame (empty when direct).
    pub path: Vec<Step>,
    /// File of the blocking statement.
    pub file: String,
    /// Line of the blocking statement.
    pub line: usize,
}

/// Per-function transitive summary.
#[derive(Debug, Clone, Default)]
pub struct Reach {
    /// Every lock identity this function may acquire (directly or through
    /// callees), with one deterministic witness each.
    pub acquires: BTreeMap<String, AcquireWitness>,
    /// First blocking operation this function may reach, if any.
    pub block: Option<BlockWitness>,
}

enum State {
    Todo,
    InProgress,
    Done(Reach),
}

/// Compute [`Reach`] for every function in the workspace, index-aligned
/// with `ws.fns`.
pub fn reachability(ws: &Workspace) -> Vec<Reach> {
    let mut memo: Vec<State> = (0..ws.fns.len()).map(|_| State::Todo).collect();
    for i in 0..ws.fns.len() {
        go(ws, &mut memo, i);
    }
    memo.into_iter()
        .map(|s| match s {
            State::Done(r) => r,
            _ => Reach::default(),
        })
        .collect()
}

fn go(ws: &Workspace, memo: &mut Vec<State>, i: usize) -> Reach {
    match &memo[i] {
        State::Done(r) => return r.clone(),
        State::InProgress => return Reach::default(), // cut recursion cycles
        State::Todo => {}
    }
    memo[i] = State::InProgress;
    let mut r = Reach::default();
    let f = &ws.fns[i];
    for ev in &f.events {
        match &ev.kind {
            EventKind::Acquire { lock } => {
                r.acquires.entry(lock.clone()).or_insert_with(|| AcquireWitness {
                    path: Vec::new(),
                    file: f.file.clone(),
                    line: ev.line,
                });
            }
            EventKind::Block { what } => {
                if r.block.is_none() {
                    r.block = Some(BlockWitness {
                        what: (*what).to_string(),
                        path: Vec::new(),
                        file: f.file.clone(),
                        line: ev.line,
                    });
                }
            }
            EventKind::Call { name, recv } => {
                for j in ws.resolve(i, name, recv) {
                    let sub = go(ws, memo, j);
                    let step =
                        Step { callee: ws.fns[j].qualified(), file: f.file.clone(), line: ev.line };
                    for (lock, w) in &sub.acquires {
                        r.acquires.entry(lock.clone()).or_insert_with(|| {
                            let mut path = vec![step.clone()];
                            path.extend(w.path.iter().cloned());
                            AcquireWitness { path, file: w.file.clone(), line: w.line }
                        });
                    }
                    if r.block.is_none() {
                        if let Some(b) = &sub.block {
                            let mut path = vec![step.clone()];
                            path.extend(b.path.iter().cloned());
                            r.block = Some(BlockWitness {
                                what: b.what.clone(),
                                path,
                                file: b.file.clone(),
                                line: b.line,
                            });
                        }
                    }
                }
            }
        }
    }
    let out = r.clone();
    memo[i] = State::Done(r);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{file_models, guard_helpers};
    use crate::scan::scan;

    fn ws(src: &str) -> Workspace {
        let lines = scan(src);
        let first = file_models("crates/x/src/lib.rs", &lines, &[]);
        let helpers = guard_helpers(&first);
        Workspace::new(file_models("crates/x/src/lib.rs", &lines, &helpers))
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn self_calls_stay_inside_the_impl_type() {
        let w = ws("impl A { fn f(&self) { self.g(); } fn g(&self) {} }\n\
             impl B { fn g(&self) {} }\n");
        let f = idx(&w, "f");
        let callees = w.resolve(f, "g", &Recv::SelfDot);
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn path_calls_resolve_against_the_named_type() {
        let w = ws("impl A { fn make() {} }\n\
             impl B { fn make() {} }\n\
             fn top() { A::make(); }\n");
        let top = idx(&w, "top");
        let callees = w.resolve(top, "make", &Recv::Path("A".to_string()));
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn module_path_calls_resolve_to_that_modules_free_fns() {
        let lines = scan("pub fn drain() {}\n");
        let mut fns = file_models("crates/x/src/engine.rs", &lines, &[]);
        fns.extend(file_models("crates/x/src/other.rs", &lines, &[]));
        let lines = scan("impl A { fn drain(&self) {} }\nfn top() { engine::drain(); }\n");
        fns.extend(file_models("crates/y/src/lib.rs", &lines, &[]));
        let w = Workspace::new(fns);
        let top = idx(&w, "top");
        let callees = w.resolve(top, "drain", &Recv::Path("engine".to_string()));
        assert_eq!(callees.len(), 1);
        assert_eq!(w.fns[callees[0]].file, "crates/x/src/engine.rs");
        assert_eq!(module_of("crates/x/src/optimizer/mod.rs"), "optimizer");
    }

    #[test]
    fn expr_calls_fan_out_to_all_methods_but_not_free_fns() {
        let w = ws("impl A { fn run(&self) {} }\n\
             impl B { fn run(&self) {} }\n\
             fn run() {}\n\
             fn top(x: &A) { x.run(); }\n");
        let top = idx(&w, "top");
        let callees = w.resolve(top, "run", &Recv::Expr);
        assert_eq!(callees.len(), 2);
        assert!(callees.iter().all(|&j| w.fns[j].self_ty.is_some()));
    }

    #[test]
    fn transitive_acquires_and_blocks_carry_witness_paths() {
        let w = ws("impl A {\n\
                 fn top(&self) { self.mid(); }\n\
                 fn mid(&self) { self.leaf(); }\n\
                 fn leaf(&self) {\n\
                     let g = self.m.lock().unwrap();\n\
                     self.file.sync_all().unwrap();\n\
                 }\n\
             }\n");
        let reach = reachability(&w);
        let top = idx(&w, "top");
        let acq = reach[top].acquires.get("A::m").expect("transitive acquire");
        let path: Vec<&str> = acq.path.iter().map(|s| s.callee.as_str()).collect();
        assert_eq!(path, ["A::mid", "A::leaf"]);
        assert_eq!(acq.line, 5);
        let block = reach[top].block.as_ref().expect("transitive block");
        assert_eq!(block.what, "sync_all");
        assert_eq!(block.line, 6);
    }

    #[test]
    fn recursion_terminates() {
        let w = ws("impl A {\n\
                 fn ping(&self) { self.pong(); }\n\
                 fn pong(&self) { self.ping(); let g = self.m.lock().unwrap(); }\n\
             }\n");
        let reach = reachability(&w);
        let ping = idx(&w, "ping");
        assert!(reach[ping].acquires.contains_key("A::m"));
    }
}
