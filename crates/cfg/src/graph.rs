//! AST → control-flow-graph lowering.
//!
//! Each parsed function body — and the top-level script — lowers to one
//! [`Cfg`]: basic blocks of straight-line [`Node`]s connected by branch,
//! loop, and try [`Edge`]s. Edges out of a conditional carry the
//! [`Guard`]s established by taking that edge (`is_numeric($x)` on the
//! true edge, its complement on the false edge of `!is_numeric($x)`),
//! which is what the guard analysis consumes.
//!
//! Lowering is deliberately syntax-directed and total: unknown constructs
//! become opaque straight-line nodes, `exit`/`die`/`return`/`throw`
//! terminate the current block, and statements after a terminator land in
//! a fresh block with no incoming edge — which is exactly how the
//! unreachable-code lint finds them.

use crate::guard::validator_call;
use wap_php::ast::*;
use wap_php::visitor::{walk_expr, Visitor};
use wap_php::Span;
use wap_php::Symbol;

/// Index of a [`Block`] inside its [`Cfg`].
pub type BlockId = usize;

/// A validation fact established by taking one CFG edge: "`validator`
/// succeeded on variable `var`".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Guard {
    /// The guarded simple variable (without `$`).
    pub var: Symbol,
    /// Lower-cased validator name (`is_numeric`, `preg_match`, ...).
    pub validator: Symbol,
}

/// A control-flow edge with the guards its traversal establishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Successor block.
    pub to: BlockId,
    /// Guards known to hold after taking this edge.
    pub guards: Vec<Guard>,
}

/// One function or method call observed in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Called function or method name (original spelling).
    pub name: Symbol,
    /// Root variables appearing anywhere in the argument list.
    pub arg_vars: Vec<Symbol>,
    /// Span of the call expression.
    pub span: Span,
    /// 1-based line of the call.
    pub line: u32,
}

/// One straight-line statement (or condition evaluation) in a block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Node {
    /// Source span of the statement or condition expression.
    pub span: Span,
    /// 1-based source line.
    pub line: u32,
    /// Simple variables (re)defined here (assignment roots, `++`,
    /// `foreach` bindings, catch bindings, function parameters).
    pub defs: Vec<Symbol>,
    /// Defs whose right-hand side is itself sanitizing: `(int)` casts and
    /// `intval`-family conversions. `(var, validator)` pairs.
    pub guard_defs: Vec<(Symbol, Symbol)>,
    /// Function and method calls inside the statement.
    pub calls: Vec<CallSite>,
    /// This node is a branch condition containing an assignment — the
    /// classic `if ($x = f())` typo the lint flags.
    pub assign_in_cond: bool,
    /// This node is a branch/loop condition evaluation.
    pub is_cond: bool,
}

/// A basic block: straight-line nodes plus its out-edges.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Straight-line nodes in execution order.
    pub nodes: Vec<Node>,
    /// Out-edges in lowering order.
    pub succs: Vec<Edge>,
    /// Predecessor block ids (maintained alongside `succs`).
    pub preds: Vec<BlockId>,
    /// The block ends in `exit`/`die`/`return`/`throw`/`break`/`continue`
    /// and has no fall-through successor.
    pub terminated: bool,
}

/// The control-flow graph of one function body or the top-level script.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Function name; `None` for the top-level script.
    pub name: Option<Symbol>,
    /// Parameter names (defined at entry).
    pub params: Vec<Symbol>,
    /// All blocks; index 0 is the entry block.
    pub blocks: Vec<Block>,
}

impl Cfg {
    /// The entry block id (always 0).
    pub fn entry(&self) -> BlockId {
        0
    }

    /// Which blocks are reachable from the entry.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry()];
        seen[self.entry()] = true;
        while let Some(b) = stack.pop() {
            for e in &self.blocks[b].succs {
                if !seen[e.to] {
                    seen[e.to] = true;
                    stack.push(e.to);
                }
            }
        }
        seen
    }

    /// Finds the node whose span most tightly contains `span`, if any.
    pub fn locate(&self, span: Span) -> Option<(BlockId, usize)> {
        let mut best: Option<(BlockId, usize, u32)> = None;
        for (b, block) in self.blocks.iter().enumerate() {
            for (i, node) in block.nodes.iter().enumerate() {
                if node.span.start() <= span.start() && span.end() <= node.span.end() {
                    let width = node.span.len();
                    if best.map(|(_, _, w)| width < w).unwrap_or(true) {
                        best = Some((b, i, width));
                    }
                }
            }
        }
        best.map(|(b, i, _)| (b, i))
    }
}

/// All CFGs of one file: the top-level script first, then every
/// user-defined function and method in declaration order.
#[derive(Debug, Clone)]
pub struct FileCfgs {
    /// Lowered graphs; index 0 is the top-level script.
    pub cfgs: Vec<Cfg>,
}

impl FileCfgs {
    /// The graph whose nodes contain `span`, with the located node.
    pub fn locate(&self, span: Span) -> Option<(usize, BlockId, usize)> {
        // prefer the tightest containing node across all graphs: function
        // bodies produce no nodes in the enclosing graph, so at most one
        // graph matches in practice
        let mut best: Option<(usize, BlockId, usize, u32)> = None;
        for (c, cfg) in self.cfgs.iter().enumerate() {
            if let Some((b, i)) = cfg.locate(span) {
                let width = cfg.blocks[b].nodes[i].span.len();
                if best.map(|(_, _, _, w)| width < w).unwrap_or(true) {
                    best = Some((c, b, i, width));
                }
            }
        }
        best.map(|(c, b, i, _)| (c, b, i))
    }

    /// The guards dominating the node containing `span`, restricted to
    /// `vars`. Empty when the span is not found or nothing dominates it.
    pub fn dominating_guards(&self, span: Span, vars: &[Symbol]) -> Vec<crate::guard::GuardFact> {
        match self.locate(span) {
            Some((c, b, i)) => {
                crate::guard::GuardAnalysis::new(&self.cfgs[c]).guards_at(b, i, vars)
            }
            None => Vec::new(),
        }
    }

    /// Span of the first call to `name` (case-insensitive), for tests and
    /// examples.
    pub fn find_call(&self, name: &str) -> Option<Span> {
        for cfg in &self.cfgs {
            for block in &cfg.blocks {
                for node in &block.nodes {
                    for call in &node.calls {
                        if call.name.as_str().eq_ignore_ascii_case(name) {
                            return Some(call.span);
                        }
                    }
                }
            }
        }
        None
    }
}

/// Lowers a whole parsed program: the top-level script plus every
/// function and method body.
pub fn lower_program(program: &Program) -> FileCfgs {
    let mut cfgs = vec![lower_stmts(&program.stmts, None, &[])];
    for f in program.functions() {
        let params: Vec<Symbol> = f.params.iter().map(|p| p.name).collect();
        cfgs.push(lower_stmts(&f.body, Some(f.name), &params));
    }
    FileCfgs { cfgs }
}

/// Lowers one statement list into a [`Cfg`]. `params` are treated as
/// definitions at function entry.
pub fn lower_stmts(stmts: &[Stmt], name: Option<Symbol>, params: &[Symbol]) -> Cfg {
    let mut lw = Lowerer {
        blocks: vec![Block::default()],
        current: 0,
        loops: Vec::new(),
    };
    if !params.is_empty() {
        // synthetic span: the entry node must never win a `locate` query
        let span = Span::synthetic();
        lw.append(Node {
            span,
            line: span.line(),
            defs: params.to_vec(),
            ..Node::default()
        });
    }
    lw.lower_block(stmts);
    Cfg {
        name,
        params: params.to_vec(),
        blocks: lw.blocks,
    }
}

struct LoopCtx {
    continue_to: BlockId,
    break_to: BlockId,
}

struct Lowerer {
    blocks: Vec<Block>,
    current: BlockId,
    loops: Vec<LoopCtx>,
}

impl Lowerer {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: BlockId, to: BlockId, guards: Vec<Guard>) {
        self.blocks[from].succs.push(Edge { to, guards });
        self.blocks[to].preds.push(from);
    }

    /// Appends a node to the current block; a terminated block spills into
    /// a fresh, edge-less block so trailing dead code is representable.
    fn append(&mut self, node: Node) {
        if self.blocks[self.current].terminated {
            self.current = self.new_block();
        }
        self.blocks[self.current].nodes.push(node);
    }

    fn terminate(&mut self) {
        self.blocks[self.current].terminated = true;
    }

    fn terminated(&self) -> bool {
        self.blocks[self.current].terminated
    }

    /// Adds a fall-through edge from the current block unless it already
    /// ended in a terminator.
    fn fall_to(&mut self, to: BlockId) {
        if !self.terminated() {
            self.edge(self.current, to, Vec::new());
        }
    }

    fn lower_block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            self.lower_stmt(s);
        }
    }

    fn stmt_node(&mut self, s: &Stmt, exprs: &[&Expr]) {
        let mut node = Node {
            span: s.span,
            line: s.span.line(),
            ..Node::default()
        };
        for e in exprs {
            collect_facts(e, &mut node);
        }
        self.append(node);
    }

    fn cond_node(&mut self, cond: &Expr) -> (Vec<Guard>, Vec<Guard>) {
        let mut node = Node {
            span: cond.span,
            line: cond.span.line(),
            is_cond: true,
            ..Node::default()
        };
        collect_facts(cond, &mut node);
        node.assign_in_cond = contains_assign(cond);
        self.append(node);
        cond_guards(cond)
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => {
                self.stmt_node(s, &[e]);
                if is_exit_expr(e) {
                    self.terminate();
                }
            }
            StmtKind::Echo(es) => {
                let refs: Vec<&Expr> = es.iter().collect();
                self.stmt_node(s, &refs);
            }
            StmtKind::InlineHtml(_) | StmtKind::Nop | StmtKind::Global(_) => {
                self.stmt_node(s, &[]);
            }
            StmtKind::StaticVars(vars) => {
                let mut node = Node {
                    span: s.span,
                    line: s.span.line(),
                    ..Node::default()
                };
                for (name, init) in vars {
                    node.defs.push(*name);
                    if let Some(e) = init {
                        collect_facts(e, &mut node);
                    }
                }
                self.append(node);
            }
            StmtKind::Unset(targets) => {
                let mut node = Node {
                    span: s.span,
                    line: s.span.line(),
                    ..Node::default()
                };
                for t in targets {
                    if let Some(v) = t.root_var_symbol() {
                        node.defs.push(v);
                    }
                }
                self.append(node);
            }
            StmtKind::Include { path, .. } => self.stmt_node(s, &[path]),
            StmtKind::Return(e) => {
                let refs: Vec<&Expr> = e.iter().collect();
                self.stmt_node(s, &refs);
                self.terminate();
            }
            StmtKind::Throw(e) => {
                self.stmt_node(s, &[e]);
                self.terminate();
            }
            StmtKind::Break(n) => {
                self.stmt_node(s, &[]);
                if let Some(ctx) = self.loop_ctx(*n) {
                    let target = ctx.break_to;
                    let from = self.current;
                    self.edge(from, target, Vec::new());
                }
                self.terminate();
            }
            StmtKind::Continue(n) => {
                self.stmt_node(s, &[]);
                if let Some(ctx) = self.loop_ctx(*n) {
                    let target = ctx.continue_to;
                    let from = self.current;
                    self.edge(from, target, Vec::new());
                }
                self.terminate();
            }
            StmtKind::Block(b) => self.lower_block(b),
            // function/method bodies lower to their own graphs
            StmtKind::Function(_) | StmtKind::Class(_) => {}
            StmtKind::If {
                cond,
                then_branch,
                elseifs,
                else_branch,
            } => self.lower_if(cond, then_branch, elseifs, else_branch.as_deref()),
            StmtKind::While { cond, body } => self.lower_while(cond, body),
            StmtKind::DoWhile { body, cond } => self.lower_do_while(body, cond),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => self.lower_for(s, init, cond, step, body),
            StmtKind::Foreach {
                array,
                key,
                value,
                body,
                ..
            } => self.lower_foreach(s, array, key.as_deref(), value, body),
            StmtKind::Switch { subject, cases } => self.lower_switch(s, subject, cases),
            StmtKind::Try {
                body,
                catches,
                finally,
            } => self.lower_try(s, body, catches, finally.as_deref()),
        }
    }

    fn loop_ctx(&self, levels: Option<i64>) -> Option<&LoopCtx> {
        let n = levels.unwrap_or(1).max(1) as usize;
        if n <= self.loops.len() {
            Some(&self.loops[self.loops.len() - n])
        } else {
            self.loops.last()
        }
    }

    fn lower_if(
        &mut self,
        cond: &Expr,
        then_branch: &[Stmt],
        elseifs: &[(Expr, Box<[Stmt]>)],
        else_branch: Option<&[Stmt]>,
    ) {
        let (tg, fg) = self.cond_node(cond);
        let cond_block = self.current;
        let after = self.new_block();

        // then arm
        let then_entry = self.new_block();
        self.edge(cond_block, then_entry, tg);
        self.current = then_entry;
        self.lower_block(then_branch);
        self.fall_to(after);

        // chain of elseif arms: each evaluates in a block entered via the
        // previous condition's false edge
        let mut pending = (cond_block, fg);
        for (econd, ebody) in elseifs {
            let eval = self.new_block();
            self.edge(pending.0, eval, pending.1.clone());
            self.current = eval;
            let (etg, efg) = self.cond_node(econd);
            let body_entry = self.new_block();
            self.edge(eval, body_entry, etg);
            self.current = body_entry;
            self.lower_block(ebody);
            self.fall_to(after);
            pending = (eval, efg);
        }

        match else_branch {
            Some(body) => {
                let else_entry = self.new_block();
                self.edge(pending.0, else_entry, pending.1);
                self.current = else_entry;
                self.lower_block(body);
                self.fall_to(after);
            }
            None => self.edge(pending.0, after, pending.1),
        }
        self.current = after;
    }

    fn lower_while(&mut self, cond: &Expr, body: &[Stmt]) {
        let head = self.new_block();
        self.fall_to(head);
        self.current = head;
        let (tg, fg) = self.cond_node(cond);
        let body_entry = self.new_block();
        let after = self.new_block();
        self.edge(head, body_entry, tg);
        self.edge(head, after, fg);
        self.loops.push(LoopCtx {
            continue_to: head,
            break_to: after,
        });
        self.current = body_entry;
        self.lower_block(body);
        self.fall_to(head);
        self.loops.pop();
        self.current = after;
    }

    fn lower_do_while(&mut self, body: &[Stmt], cond: &Expr) {
        let body_entry = self.new_block();
        self.fall_to(body_entry);
        let cond_block = self.new_block();
        let after = self.new_block();
        self.loops.push(LoopCtx {
            continue_to: cond_block,
            break_to: after,
        });
        self.current = body_entry;
        self.lower_block(body);
        self.fall_to(cond_block);
        self.loops.pop();
        self.current = cond_block;
        let (tg, fg) = self.cond_node(cond);
        self.edge(cond_block, body_entry, tg);
        self.edge(cond_block, after, fg);
        self.current = after;
    }

    fn lower_for(&mut self, s: &Stmt, init: &[Expr], cond: &[Expr], step: &[Expr], body: &[Stmt]) {
        let _ = s;
        let init_refs: Vec<&Expr> = init.iter().collect();
        if !init_refs.is_empty() {
            let span = init_refs
                .iter()
                .map(|e| e.span)
                .reduce(|a, b| a.merge(b))
                .unwrap_or_else(Span::synthetic);
            let mut node = Node {
                span,
                line: span.line(),
                ..Node::default()
            };
            for e in &init_refs {
                collect_facts(e, &mut node);
            }
            self.append(node);
        }
        let head = self.new_block();
        self.fall_to(head);
        self.current = head;
        let (tg, fg, has_cond) = match cond.last() {
            Some(c) => {
                for extra in &cond[..cond.len() - 1] {
                    let mut node = Node {
                        span: extra.span,
                        line: extra.span.line(),
                        is_cond: true,
                        ..Node::default()
                    };
                    collect_facts(extra, &mut node);
                    self.append(node);
                }
                let (tg, fg) = self.cond_node(c);
                (tg, fg, true)
            }
            None => (Vec::new(), Vec::new(), false),
        };
        let body_entry = self.new_block();
        let step_block = self.new_block();
        let after = self.new_block();
        self.edge(head, body_entry, tg);
        if has_cond {
            self.edge(head, after, fg);
        }
        self.loops.push(LoopCtx {
            continue_to: step_block,
            break_to: after,
        });
        self.current = body_entry;
        self.lower_block(body);
        self.fall_to(step_block);
        self.loops.pop();
        self.current = step_block;
        for e in step {
            let mut node = Node {
                span: e.span,
                line: e.span.line(),
                ..Node::default()
            };
            collect_facts(e, &mut node);
            self.blocks[step_block].nodes.push(node);
        }
        self.edge(step_block, head, Vec::new());
        self.current = after;
    }

    fn lower_foreach(
        &mut self,
        s: &Stmt,
        array: &Expr,
        key: Option<&Expr>,
        value: &Expr,
        body: &[Stmt],
    ) {
        // evaluate the iterated expression once, before the loop
        let mut node = Node {
            span: array.span,
            line: array.span.line(),
            ..Node::default()
        };
        collect_facts(array, &mut node);
        self.append(node);
        let _ = s;

        let head = self.new_block();
        self.fall_to(head);
        let body_entry = self.new_block();
        let after = self.new_block();
        self.edge(head, body_entry, Vec::new());
        self.edge(head, after, Vec::new());
        self.loops.push(LoopCtx {
            continue_to: head,
            break_to: after,
        });
        self.current = body_entry;
        let mut bind = Node {
            span: value.span,
            line: value.span.line(),
            ..Node::default()
        };
        for e in key.into_iter().chain(std::iter::once(value)) {
            if let Some(v) = e.root_var_symbol() {
                bind.defs.push(v);
            }
        }
        self.append(bind);
        self.lower_block(body);
        self.fall_to(head);
        self.loops.pop();
        self.current = after;
    }

    fn lower_switch(&mut self, s: &Stmt, subject: &Expr, cases: &[SwitchCase]) {
        let _ = s;
        let mut node = Node {
            span: subject.span,
            line: subject.span.line(),
            ..Node::default()
        };
        collect_facts(subject, &mut node);
        self.append(node);
        let head = self.current;
        let after = self.new_block();
        // PHP `continue` inside `switch` behaves like `break`; an enclosing
        // loop's continue target still wins for `continue 2`-style levels,
        // which loop_ctx resolves from the stack
        self.loops.push(LoopCtx {
            continue_to: after,
            break_to: after,
        });
        let has_default = cases.iter().any(|c| c.test.is_none());
        let mut fallthrough: Option<BlockId> = None;
        for case in cases {
            let entry = self.new_block();
            self.edge(head, entry, Vec::new());
            if let Some(prev) = fallthrough {
                self.edge(prev, entry, Vec::new());
            }
            self.current = entry;
            if let Some(test) = &case.test {
                let mut tnode = Node {
                    span: test.span,
                    line: test.span.line(),
                    is_cond: true,
                    ..Node::default()
                };
                collect_facts(test, &mut tnode);
                self.append(tnode);
            }
            self.lower_block(&case.body);
            fallthrough = if self.terminated() {
                None
            } else {
                Some(self.current)
            };
        }
        if let Some(prev) = fallthrough {
            self.edge(prev, after, Vec::new());
        }
        if !has_default {
            self.edge(head, after, Vec::new());
        }
        self.loops.pop();
        self.current = after;
    }

    fn lower_try(
        &mut self,
        s: &Stmt,
        body: &[Stmt],
        catches: &[CatchClause],
        finally: Option<&[Stmt]>,
    ) {
        let pre = self.current;
        let body_entry = self.new_block();
        self.edge(pre, body_entry, Vec::new());
        self.current = body_entry;
        self.lower_block(body);
        let mut exits: Vec<BlockId> = Vec::new();
        if !self.terminated() {
            exits.push(self.current);
        }
        for c in catches {
            // an exception may fire before any effect of the body, so the
            // handler is conservatively reachable straight from the block
            // preceding the try — guards set inside the body never
            // dominate a handler
            let entry = self.new_block();
            self.edge(pre, entry, Vec::new());
            self.current = entry;
            let mut bind = Node {
                span: s.span,
                line: s.span.line(),
                ..Node::default()
            };
            if let Some(v) = c.var {
                bind.defs.push(v);
            }
            self.append(bind);
            self.lower_block(&c.body);
            if !self.terminated() {
                exits.push(self.current);
            }
        }
        let after = self.new_block();
        match finally {
            Some(fin) => {
                let fin_entry = self.new_block();
                for e in exits {
                    self.edge(e, fin_entry, Vec::new());
                }
                self.current = fin_entry;
                self.lower_block(fin);
                self.fall_to(after);
            }
            None => {
                for e in exits {
                    self.edge(e, after, Vec::new());
                }
            }
        }
        self.current = after;
    }
}

/// Whether evaluating this expression unconditionally stops the script.
fn is_exit_expr(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Exit(_) => true,
        ExprKind::ErrorSuppress(inner) => is_exit_expr(inner),
        _ => false,
    }
}

/// Whether the expression contains a plain or compound assignment —
/// closures excluded (their bodies are separate graphs).
fn contains_assign(e: &Expr) -> bool {
    let mut found = false;
    walk_expr_shallow(e, |x| {
        if matches!(x.kind, ExprKind::Assign { .. }) {
            found = true;
        }
    });
    found
}

/// Extracts defs, guard-defs, and call sites from one expression tree
/// into `node`. Closure bodies are skipped: they lower to their own graph.
fn collect_facts(e: &Expr, node: &mut Node) {
    walk_expr_shallow(e, |x| match &x.kind {
        ExprKind::Assign { target, value, .. } => {
            match &target.kind {
                ExprKind::List(items) => {
                    for item in items.iter().flatten() {
                        if let Some(v) = item.root_var_symbol() {
                            node.defs.push(v);
                        }
                    }
                }
                _ => {
                    if let Some(v) = target.root_var_symbol() {
                        node.defs.push(v);
                        if let Some(validator) = sanitizing_value(value) {
                            node.guard_defs.push((v, validator));
                        }
                    }
                }
            };
        }
        ExprKind::IncDec { target, .. } => {
            if let Some(v) = target.root_var_symbol() {
                node.defs.push(v);
            }
        }
        ExprKind::Call { callee, args } => {
            if let ExprKind::Name(n) = &callee.kind {
                node.calls.push(call_site(*n, args, x.span));
            }
        }
        ExprKind::MethodCall { method, args, .. } => {
            node.calls.push(call_site(*method, args, x.span));
        }
        ExprKind::StaticCall { method, args, .. } => {
            node.calls.push(call_site(*method, args, x.span));
        }
        _ => {}
    });
}

fn call_site(name: Symbol, args: &[Expr], span: Span) -> CallSite {
    let mut arg_vars: Vec<Symbol> = Vec::new();
    for a in args {
        collect_arg_vars(a, &mut arg_vars);
    }
    // Symbol's Ord is string order, so after sorting, equal ids (equal
    // strings) are adjacent and dedup works.
    arg_vars.sort();
    arg_vars.dedup();
    CallSite {
        name,
        arg_vars,
        span,
        line: span.line(),
    }
}

fn collect_arg_vars(e: &Expr, out: &mut Vec<Symbol>) {
    walk_expr_shallow(e, |x| {
        if let ExprKind::Var(v) = &x.kind {
            out.push(*v);
        }
    });
}

/// A sanitizing right-hand side: `(int)`/`(float)`/`(bool)` casts and the
/// conversion functions. Returns the validator name to record.
fn sanitizing_value(e: &Expr) -> Option<Symbol> {
    match &e.kind {
        ExprKind::Cast { ty, .. } if ty.is_sanitizing() => {
            Some(Symbol::intern(&format!("cast_{}", ty.keyword())))
        }
        ExprKind::Call { callee, .. } => match &callee.kind {
            ExprKind::Name(n)
                if matches!(
                    n.lower().as_str(),
                    "intval" | "floatval" | "doubleval" | "boolval"
                ) =>
            {
                Some(n.lower())
            }
            _ => None,
        },
        _ => None,
    }
}

/// Pre-order walk over an expression tree, skipping closure bodies: they
/// lower to their own graph.
fn walk_expr_shallow(e: &Expr, f: impl FnMut(&Expr)) {
    struct Shallow<F>(F);
    impl<F: FnMut(&Expr)> Visitor for Shallow<F> {
        fn visit_expr(&mut self, e: &Expr) {
            (self.0)(e);
            if !matches!(e.kind, ExprKind::Closure(_)) {
                walk_expr(self, e);
            }
        }
    }
    Shallow(f).visit_expr(e);
}

/// `(true_guards, false_guards)` established by branching on `cond`.
///
/// Handles direct validator calls, `!`, `&&` (guards hold on the true
/// edge), `||` (complement guards hold on the false edge), and the
/// comparison idioms `preg_match(...) === 1` / `=== 0` / `!= 0`.
pub(crate) fn cond_guards(cond: &Expr) -> (Vec<Guard>, Vec<Guard>) {
    match &cond.kind {
        ExprKind::Call { callee, args } => {
            if let ExprKind::Name(n) = &callee.kind {
                if let Some(g) = validator_call(*n, args) {
                    return (vec![g], Vec::new());
                }
            }
            (Vec::new(), Vec::new())
        }
        ExprKind::Unary {
            op: UnOp::Not,
            expr,
        } => {
            let (t, f) = cond_guards(expr);
            (f, t)
        }
        ExprKind::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let (mut lt, _) = cond_guards(lhs);
            let (rt, _) = cond_guards(rhs);
            lt.extend(rt);
            (lt, Vec::new())
        }
        ExprKind::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => {
            let (_, mut lf) = cond_guards(lhs);
            let (_, rf) = cond_guards(rhs);
            lf.extend(rf);
            (Vec::new(), lf)
        }
        ExprKind::Binary { op, lhs, rhs }
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Identical | BinOp::NotIdentical
            ) =>
        {
            let (lit, other) = match (&lhs.kind, &rhs.kind) {
                (ExprKind::Lit(l), _) => (Some(l), rhs.as_ref()),
                (_, ExprKind::Lit(l)) => (Some(l), lhs.as_ref()),
                _ => (None, lhs.as_ref()),
            };
            let Some(lit) = lit else {
                return (Vec::new(), Vec::new());
            };
            let truthy = match lit {
                Lit::Int(i) => *i != 0,
                Lit::Bool(b) => *b,
                _ => return (Vec::new(), Vec::new()),
            };
            let equals = matches!(op, BinOp::Eq | BinOp::Identical);
            let (t, f) = cond_guards(other);
            if truthy == equals {
                (t, f)
            } else {
                (f, t)
            }
        }
        _ => (Vec::new(), Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wap_php::parse;

    fn cfgs(src: &str) -> FileCfgs {
        lower_program(&parse(src).expect("parse"))
    }

    #[test]
    fn straight_line_is_one_block() {
        let f = cfgs("<?php $a = 1; $b = $a + 1; echo $b;");
        let top = &f.cfgs[0];
        let live: Vec<&Block> = top.blocks.iter().filter(|b| !b.nodes.is_empty()).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].nodes.len(), 3);
        assert_eq!(live[0].nodes[0].defs, vec!["a"]);
    }

    #[test]
    fn if_else_produces_diamond() {
        let f = cfgs("<?php if ($x) { echo 1; } else { echo 2; } echo 3;");
        let top = &f.cfgs[0];
        let reach = top.reachable();
        assert!(reach.iter().all(|r| *r), "no unreachable blocks: {top:?}");
        // entry has two successors (then, else)
        assert_eq!(top.blocks[0].succs.len(), 2);
    }

    #[test]
    fn code_after_exit_is_unreachable() {
        let f = cfgs("<?php exit; echo 'dead';");
        let top = &f.cfgs[0];
        let reach = top.reachable();
        let dead: Vec<&Block> = top
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, b)| !reach[*i] && !b.nodes.is_empty())
            .map(|(_, b)| b)
            .collect();
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn code_after_return_in_function_is_unreachable() {
        let f = cfgs("<?php function g() { return 1; echo 'dead'; }");
        let fun = &f.cfgs[1];
        let reach = fun.reachable();
        assert!(fun
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| !reach[i] && !b.nodes.is_empty()));
    }

    #[test]
    fn loops_have_back_edges() {
        let f = cfgs("<?php while ($x) { $x = $x - 1; } echo $x;");
        let top = &f.cfgs[0];
        // some block has an edge to an earlier block (the loop head)
        let back = top
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|e| e.to <= i && e.to != i + 1));
        assert!(back, "expected a back edge: {top:?}");
        assert!(top.reachable().iter().all(|r| *r));
    }

    #[test]
    fn break_exits_loop_continue_reenters() {
        let f = cfgs("<?php while (true) { if ($x) { break; } continue; } echo 'after';");
        let top = &f.cfgs[0];
        let reach = top.reachable();
        // `echo 'after'` must be reachable through the break edge
        let after_reachable = top
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.nodes.iter().any(|n| !n.is_cond))
            .all(|(i, _)| reach[i]);
        assert!(after_reachable, "{top:?}");
    }

    #[test]
    fn guards_attach_to_branch_edges() {
        let f = cfgs("<?php if (is_numeric($id)) { echo $id; }");
        let top = &f.cfgs[0];
        let guard_edges: Vec<&Edge> = top
            .blocks
            .iter()
            .flat_map(|b| b.succs.iter())
            .filter(|e| !e.guards.is_empty())
            .collect();
        assert_eq!(guard_edges.len(), 1);
        assert_eq!(guard_edges[0].guards[0].var, "id");
        assert_eq!(guard_edges[0].guards[0].validator, "is_numeric");
    }

    #[test]
    fn negated_guard_attaches_to_false_edge() {
        let src = "<?php if (!is_numeric($id)) { exit; } echo $id;";
        let f = cfgs(src);
        let top = &f.cfgs[0];
        // the false edge (continuation) carries the guard
        let mut found = false;
        for b in &top.blocks {
            for e in &b.succs {
                if !e.guards.is_empty() {
                    found = true;
                    // the target block holds the echo, not the exit
                    assert!(top.blocks[e.to]
                        .nodes
                        .iter()
                        .all(|n| !n.span.slice(src).contains("exit")));
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn preg_match_comparison_idiom() {
        let (t, f) = cond_guards(
            &parse_cond("<?php if (preg_match('/^[0-9]+$/', $x) === 1) { echo $x; }").clone(),
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].validator, "preg_match");
        assert_eq!(t[0].var, "x");
        assert!(f.is_empty());

        let (t, f) =
            cond_guards(&parse_cond("<?php if (preg_match('/x/', $x) === 0) { echo 1; }").clone());
        assert!(t.is_empty());
        assert_eq!(f.len(), 1);
    }

    fn parse_cond(src: &str) -> Expr {
        let p = parse(src).expect("parse");
        match &p.stmts[0].kind {
            StmtKind::If { cond, .. } => (**cond).clone(),
            other => panic!("not an if: {other:?}"),
        }
    }

    #[test]
    fn and_combines_or_complements() {
        let (t, _) = cond_guards(&parse_cond(
            "<?php if (is_int($a) && is_numeric($b)) { echo 1; }",
        ));
        assert_eq!(t.len(), 2);

        let (t, f) = cond_guards(&parse_cond(
            "<?php if (!is_int($a) || !is_numeric($b)) { exit; }",
        ));
        assert!(t.is_empty());
        assert_eq!(f.len(), 2, "both complements hold on the false edge");
    }

    #[test]
    fn assignment_in_condition_is_flagged() {
        let f = cfgs("<?php if ($x = rand()) { echo $x; }");
        let cond = f.cfgs[0]
            .blocks
            .iter()
            .flat_map(|b| b.nodes.iter())
            .find(|n| n.is_cond)
            .expect("cond node");
        assert!(cond.assign_in_cond);

        let f = cfgs("<?php if ($x == rand()) { echo $x; }");
        let cond = f.cfgs[0]
            .blocks
            .iter()
            .flat_map(|b| b.nodes.iter())
            .find(|n| n.is_cond)
            .expect("cond node");
        assert!(!cond.assign_in_cond);
    }

    #[test]
    fn cast_assignment_records_guard_def() {
        let f = cfgs("<?php $id = (int)$_GET['id']; $n = intval($_GET['n']);");
        let node0 = &f.cfgs[0].blocks[0].nodes[0];
        assert_eq!(node0.guard_defs, vec![("id".into(), "cast_int".into())]);
        let node1 = &f.cfgs[0].blocks[0].nodes[1];
        assert_eq!(node1.guard_defs, vec![("n".into(), "intval".into())]);
    }

    #[test]
    fn calls_record_argument_roots() {
        let f = cfgs("<?php mysql_query(\"SELECT \" . $q, $conn);");
        let call = &f.cfgs[0].blocks[0].nodes[0].calls[0];
        assert_eq!(call.name, "mysql_query");
        assert_eq!(call.arg_vars, vec!["conn", "q"]);
    }

    #[test]
    fn functions_get_their_own_graphs() {
        let f = cfgs("<?php function g($a) { return $a; } g(1);");
        assert_eq!(f.cfgs.len(), 2);
        assert_eq!(f.cfgs[1].name.map(Symbol::as_str), Some("g"));
        assert_eq!(f.cfgs[1].params, vec!["a"]);
        // param defs land in the entry node
        assert_eq!(f.cfgs[1].blocks[0].nodes[0].defs, vec!["a"]);
    }

    #[test]
    fn switch_fallthrough_and_default() {
        let f = cfgs(
            "<?php switch ($x) { case 1: echo 'a'; case 2: echo 'b'; break; default: echo 'c'; } echo 'after';",
        );
        let top = &f.cfgs[0];
        assert!(top.reachable().iter().enumerate().all(|(i, r)| {
            *r || top.blocks[i].nodes.is_empty() // only structural blocks may be dead
        }));
    }

    #[test]
    fn try_catch_finally_reaches_after() {
        let f = cfgs(
            "<?php try { risky(); } catch (Exception $e) { log_it($e); } finally { cleanup(); } echo 'done';",
        );
        let top = &f.cfgs[0];
        let reach = top.reachable();
        assert!(top
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.nodes.is_empty())
            .all(|(i, _)| reach[i]));
    }

    #[test]
    fn locate_finds_tightest_node() {
        let src = "<?php $a = 1; mysql_query($a);";
        let f = cfgs(src);
        let call_span = f.find_call("mysql_query").expect("call");
        let (c, b, i) = f.locate(call_span).expect("located");
        assert_eq!(c, 0);
        let node = &f.cfgs[c].blocks[b].nodes[i];
        assert!(node.span.slice(src).contains("mysql_query"));
    }
}
