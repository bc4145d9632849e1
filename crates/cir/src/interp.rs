//! A concrete interpreter for the IR.
//!
//! The interpreter serves three purposes in the reproduction:
//!
//! 1. it executes the **run-time checks** that cast instrumentation
//!    inserts for value-qualifier casts (paper §2.1.3): a failed check is
//!    a fatal error, surfaced here as [`RuntimeError::CheckFailed`];
//! 2. it provides the ground truth for **differential soundness testing**:
//!    programs that typecheck must never violate a proven qualifier's
//!    invariant at run time;
//! 3. it models the **format-string vulnerability** the paper's
//!    `untainted` experiment rediscovers in bftpd — `printf` with more
//!    conversion specifiers than arguments raises
//!    [`RuntimeError::FormatString`].
//!
//! Memory is the paper's logical model: one cell per scalar, addresses are
//! opaque integers, `NULL` is address 0, and pointer arithmetic moves
//! between cells.

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;
use stq_util::{Span, Symbol};

/// A run-time value: an integer or a pointer (address). `NULL` is
/// `Value::Ptr(0)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Value {
    /// Integer (also chars).
    Int(i64),
    /// Pointer to a memory cell; 0 is `NULL`.
    Ptr(u64),
}

impl Value {
    /// The `NULL` pointer.
    pub const NULL: Value = Value::Ptr(0);

    /// Truthiness for conditions.
    pub fn is_truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Ptr(a) => a != 0,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Ptr(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Ptr(0) => f.write_str("NULL"),
            Value::Ptr(a) => write!(f, "&{a}"),
        }
    }
}

/// A fatal execution error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RuntimeError {
    /// Dereference of `NULL`.
    NullDeref(Span),
    /// Division or modulo by zero.
    DivByZero(Span),
    /// Signed integer arithmetic left the representable range. The
    /// qualifier invariants are proved over mathematical integers, so
    /// executions are stopped at the point they leave that model instead
    /// of silently wrapping into values the static rules never promised
    /// anything about (a wrapped `pos * pos` can be negative — found by
    /// `stqc fuzz`'s soundness oracle).
    ArithOverflow(Span),
    /// An instrumented qualifier cast check failed (paper §2.1.3).
    CheckFailed {
        /// The qualifier whose invariant was violated.
        qual: Symbol,
        /// The offending cast.
        span: Span,
        /// The value that failed the check.
        value: String,
    },
    /// `printf` consumed more arguments than were supplied — the
    /// format-string vulnerability.
    FormatString {
        /// The offending call.
        span: Span,
        /// Description.
        detail: String,
    },
    /// Call to an unknown function.
    UnknownFunction(Symbol, Span),
    /// Reference to an unbound variable.
    Unbound(Symbol, Span),
    /// The step budget was exhausted (runaway loop).
    OutOfFuel,
    /// The call-depth budget was exhausted (runaway recursion).
    StackOverflow,
    /// A construct the interpreter does not model.
    Unsupported(String, Span),
    /// The program has no entry point.
    NoEntry(Symbol),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NullDeref(s) => write!(f, "null dereference at {s}"),
            RuntimeError::DivByZero(s) => write!(f, "division by zero at {s}"),
            RuntimeError::ArithOverflow(s) => write!(f, "integer overflow at {s}"),
            RuntimeError::CheckFailed { qual, span, value } => write!(
                f,
                "run-time check for qualifier `{qual}` failed on value {value} at {span}"
            ),
            RuntimeError::FormatString { span, detail } => {
                write!(f, "format-string violation at {span}: {detail}")
            }
            RuntimeError::UnknownFunction(n, s) => {
                write!(f, "call to unknown function `{n}` at {s}")
            }
            RuntimeError::Unbound(n, s) => write!(f, "unbound variable `{n}` at {s}"),
            RuntimeError::OutOfFuel => f.write_str("execution step budget exhausted"),
            RuntimeError::StackOverflow => f.write_str("call-depth budget exhausted"),
            RuntimeError::Unsupported(what, s) => write!(f, "unsupported: {what} at {s}"),
            RuntimeError::NoEntry(n) => write!(f, "no entry function `{n}`"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Evaluates a value qualifier's invariant dynamically for instrumented
/// cast checks. Implemented by `stq-typecheck` from parsed `invariant`
/// clauses; [`NoChecks`] accepts everything.
pub trait QualChecker {
    /// Whether `value` satisfies `qual`'s run-time invariant.
    fn holds(&self, qual: Symbol, value: Value) -> bool;
}

/// A [`QualChecker`] that accepts every value (no instrumentation).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoChecks;

impl QualChecker for NoChecks {
    fn holds(&self, _qual: Symbol, _value: Value) -> bool {
        true
    }
}

/// What a completed execution produced.
#[derive(Clone, Debug, Default)]
pub struct ExecOutcome {
    /// The entry function's return value.
    pub ret: Option<Value>,
    /// Everything `printf` wrote.
    pub stdout: String,
    /// Number of `printf`-family calls executed.
    pub printf_calls: usize,
    /// Number of run-time qualifier checks executed (all passed).
    pub checks_passed: usize,
}

/// Interpreter limits.
#[derive(Clone, Copy, Debug)]
pub struct InterpConfig {
    /// Maximum executed instructions before [`RuntimeError::OutOfFuel`].
    pub max_steps: u64,
    /// Maximum nested call depth before [`RuntimeError::StackOverflow`].
    /// Each interpreted call consumes host stack frames, so this bound is
    /// what keeps runaway recursion a reportable error instead of a host
    /// stack overflow.
    pub max_call_depth: u64,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            max_steps: 2_000_000,
            max_call_depth: 192,
        }
    }
}

/// Runs `entry` (with the given argument values) in `program`.
///
/// # Errors
///
/// Returns the first [`RuntimeError`] encountered.
///
/// # Examples
///
/// ```
/// use stq_cir::interp::{run_entry, NoChecks, Value, InterpConfig};
/// use stq_cir::parse::parse_program;
///
/// let p = parse_program(
///     "int add(int a, int b) { return a + b; }",
///     &[],
/// ).unwrap();
/// let out = run_entry(&p, "add", &[Value::Int(2), Value::Int(40)],
///                     &NoChecks, InterpConfig::default()).unwrap();
/// assert_eq!(out.ret, Some(Value::Int(42)));
/// ```
pub fn run_entry(
    program: &Program,
    entry: &str,
    args: &[Value],
    checker: &dyn QualChecker,
    config: InterpConfig,
) -> Result<ExecOutcome, RuntimeError> {
    let mut interp = Interp {
        program,
        checker,
        mem: HashMap::new(),
        next_addr: 1,
        globals: HashMap::new(),
        global_types: HashMap::new(),
        steps: 0,
        depth: 0,
        config,
        outcome: ExecOutcome::default(),
    };
    // Allocate and initialize globals.
    for g in &program.globals {
        let addr = interp.alloc(interp.size_of(&g.ty));
        interp.globals.insert(g.name, addr);
        interp.global_types.insert(g.name, g.ty.clone());
        if let Some(init) = &g.init {
            let mut frame = Frame::new();
            let v = interp.eval(&mut frame, init)?;
            interp.mem.insert(addr, v);
        }
    }
    let entry_sym = Symbol::intern(entry);
    let func = program
        .func(entry_sym)
        .ok_or(RuntimeError::NoEntry(entry_sym))?;
    let ret = interp.call(func, args.to_vec(), Span::DUMMY)?;
    let mut outcome = interp.outcome;
    outcome.ret = ret;
    Ok(outcome)
}

struct Frame {
    /// Lexical scopes, innermost last: name → (address, type).
    scopes: Vec<HashMap<Symbol, (u64, QualType)>>,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            scopes: vec![HashMap::new()],
        }
    }

    fn lookup(&self, name: Symbol) -> Option<&(u64, QualType)> {
        self.scopes.iter().rev().find_map(|s| s.get(&name))
    }

    fn declare(&mut self, name: Symbol, addr: u64, ty: QualType) {
        self.scopes
            .last_mut()
            .expect("frame always has a scope")
            .insert(name, (addr, ty));
    }
}

enum Flow {
    Normal,
    Return(Option<Value>),
}

struct Interp<'a> {
    program: &'a Program,
    checker: &'a dyn QualChecker,
    mem: HashMap<u64, Value>,
    next_addr: u64,
    globals: HashMap<Symbol, u64>,
    global_types: HashMap<Symbol, QualType>,
    steps: u64,
    depth: u64,
    config: InterpConfig,
    outcome: ExecOutcome,
}

impl Interp<'_> {
    fn tick(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            Err(RuntimeError::OutOfFuel)
        } else {
            Ok(())
        }
    }

    fn alloc(&mut self, cells: u64) -> u64 {
        let addr = self.next_addr;
        // A hostile `malloc(huge)` must not wrap the address counter back
        // over live cells (or 0, which would alias NULL); saturating at
        // the top of the address space merely aliases fresh allocations
        // with each other, which the logical memory model tolerates.
        self.next_addr = self.next_addr.saturating_add(cells.max(1));
        addr
    }

    /// Size of a type in cells (one per scalar).
    fn size_of(&self, ty: &QualType) -> u64 {
        self.size_of_bounded(ty, 64)
    }

    /// `size_of` with a recursion budget: a struct that (transitively)
    /// contains itself by value has no finite layout, and following the
    /// cycle would overflow the host stack. Past the budget each
    /// remaining level counts as one cell.
    fn size_of_bounded(&self, ty: &QualType, budget: u32) -> u64 {
        match &ty.ty {
            Ty::Base(BaseTy::Struct(tag)) if budget > 0 => self
                .program
                .struct_def(*tag)
                .map(|s| {
                    s.fields
                        .iter()
                        .fold(0u64, |acc, (_, t)| {
                            acc.saturating_add(self.size_of_bounded(t, budget - 1))
                        })
                        .max(1)
                })
                .unwrap_or(1),
            _ => 1,
        }
    }

    fn field_offset(&self, tag: Symbol, field: Symbol) -> Option<(u64, QualType)> {
        let def = self.program.struct_def(tag)?;
        let mut off: u64 = 0;
        for (name, ty) in &def.fields {
            if *name == field {
                return Some((off, ty.clone()));
            }
            off = off.saturating_add(self.size_of(ty));
        }
        None
    }

    fn load(&self, addr: u64) -> Value {
        // Uninitialized cells read as zero (deterministic stand-in for
        // C's undefined behaviour, which the paper lists as a source of
        // unsoundness).
        self.mem.get(&addr).copied().unwrap_or(Value::Int(0))
    }

    fn call(
        &mut self,
        func: &FuncDef,
        args: Vec<Value>,
        _call_span: Span,
    ) -> Result<Option<Value>, RuntimeError> {
        if self.depth >= self.config.max_call_depth {
            return Err(RuntimeError::StackOverflow);
        }
        self.depth += 1;
        let mut frame = Frame::new();
        for ((name, ty), value) in func.sig.params.iter().zip(args) {
            let addr = self.alloc(1);
            self.mem.insert(addr, value);
            frame.declare(*name, addr, ty.clone());
        }
        let flow = self.exec_block(&mut frame, &func.body);
        self.depth -= 1;
        match flow? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(None),
        }
    }

    fn exec_block(&mut self, frame: &mut Frame, stmts: &[Stmt]) -> Result<Flow, RuntimeError> {
        frame.scopes.push(HashMap::new());
        let mut flow = Flow::Normal;
        for s in stmts {
            flow = self.exec_stmt(frame, s)?;
            if matches!(flow, Flow::Return(_)) {
                break;
            }
        }
        frame.scopes.pop();
        Ok(flow)
    }

    fn exec_stmt(&mut self, frame: &mut Frame, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        self.tick()?;
        match &stmt.kind {
            StmtKind::Instr(i) => {
                self.exec_instr(frame, i)?;
                Ok(Flow::Normal)
            }
            StmtKind::Block(stmts) => self.exec_block(frame, stmts),
            StmtKind::If(cond, then, els) => {
                let c = self.eval(frame, cond)?;
                if c.is_truthy() {
                    self.exec_stmt(frame, then)
                } else if let Some(e) = els {
                    self.exec_stmt(frame, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While(cond, body) => {
                loop {
                    self.tick()?;
                    let c = self.eval(frame, cond)?;
                    if !c.is_truthy() {
                        break;
                    }
                    if let Flow::Return(v) = self.exec_stmt(frame, body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(frame, e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Decl(d) => {
                let size = self.size_of(&d.ty);
                let addr = self.alloc(size);
                frame.declare(d.name, addr, d.ty.clone());
                if let Some(init) = &d.init {
                    let v = self.eval(frame, init)?;
                    self.mem.insert(addr, v);
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_instr(&mut self, frame: &mut Frame, instr: &Instr) -> Result<(), RuntimeError> {
        self.tick()?;
        match &instr.kind {
            InstrKind::Set(lv, e) => {
                let v = self.eval(frame, e)?;
                let addr = self.lval_addr(frame, lv)?;
                self.mem.insert(addr, v);
                Ok(())
            }
            InstrKind::Alloc(lv, size) => {
                let n = match self.eval(frame, size)? {
                    Value::Int(n) if n >= 0 => n as u64,
                    _ => 1,
                };
                let addr = self.alloc(n.max(1));
                let dst = self.lval_addr(frame, lv)?;
                self.mem.insert(dst, Value::Ptr(addr));
                Ok(())
            }
            InstrKind::Call(dst, fname, args) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(frame, a)?);
                }
                let ret = self.dispatch_call(*fname, argv, instr.span)?;
                if let Some(lv) = dst {
                    let addr = self.lval_addr(frame, lv)?;
                    self.mem.insert(addr, ret.unwrap_or(Value::Int(0)));
                }
                Ok(())
            }
            InstrKind::RuntimeCheck(qual, e) => {
                let v = self.eval(frame, e)?;
                if self.checker.holds(*qual, v) {
                    self.outcome.checks_passed += 1;
                    Ok(())
                } else {
                    Err(RuntimeError::CheckFailed {
                        qual: *qual,
                        span: instr.span,
                        value: v.to_string(),
                    })
                }
            }
        }
    }

    fn dispatch_call(
        &mut self,
        fname: Symbol,
        args: Vec<Value>,
        span: Span,
    ) -> Result<Option<Value>, RuntimeError> {
        match fname.as_str() {
            "printf" | "fprintf" | "syslog" => {
                // fprintf/syslog take a leading stream/priority argument.
                let skip = usize::from(fname.as_str() != "printf");
                self.outcome.printf_calls += 1;
                let written = self.do_printf(&args[skip..], span)?;
                Ok(Some(Value::Int(written)))
            }
            "free" => Ok(None),
            "abort" | "exit" => Err(RuntimeError::Unsupported(
                format!("process exit via {fname}"),
                span,
            )),
            _ => {
                if let Some(func) = self.program.func(fname) {
                    // Clone body once per call; bodies are shared references
                    // into the program otherwise.
                    let func = func.clone();
                    self.call(&func, args, span)
                } else {
                    Err(RuntimeError::UnknownFunction(fname, span))
                }
            }
        }
    }

    /// Reads a NUL-terminated string starting at `addr`.
    fn read_string(&self, mut addr: u64, span: Span) -> Result<String, RuntimeError> {
        if addr == 0 {
            return Err(RuntimeError::NullDeref(span));
        }
        let mut out = String::new();
        for _ in 0..65536 {
            match self.load(addr) {
                Value::Int(0) => return Ok(out),
                Value::Int(c) => {
                    out.push(char::from_u32((c & 0xff) as u32).unwrap_or('?'));
                    addr = addr.wrapping_add(1);
                }
                Value::Ptr(_) => return Ok(out),
            }
        }
        Ok(out)
    }

    /// The heart of the format-string vulnerability model: walks the
    /// format string, consuming one argument per conversion specifier.
    /// Reading past the supplied arguments — exactly what happens on the
    /// C stack — is a [`RuntimeError::FormatString`].
    fn do_printf(&mut self, args: &[Value], span: Span) -> Result<i64, RuntimeError> {
        let Some(&fmt_ptr) = args.first() else {
            return Err(RuntimeError::FormatString {
                span,
                detail: "printf with no format argument".to_owned(),
            });
        };
        let fmt_addr = match fmt_ptr {
            Value::Ptr(a) => a,
            Value::Int(_) => {
                return Err(RuntimeError::FormatString {
                    span,
                    detail: "format argument is not a string".to_owned(),
                })
            }
        };
        let fmt = self.read_string(fmt_addr, span)?;
        let mut rest = args[1..].iter();
        let mut out = String::new();
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('%') => out.push('%'),
                Some(spec @ ('d' | 'i' | 'u' | 'x' | 'c')) => match rest.next() {
                    Some(Value::Int(v)) => out.push_str(&v.to_string()),
                    Some(Value::Ptr(p)) => out.push_str(&p.to_string()),
                    None => {
                        return Err(RuntimeError::FormatString {
                            span,
                            detail: format!(
                                "conversion %{spec} reads a nonexistent argument off the stack"
                            ),
                        })
                    }
                },
                Some('s') => match rest.next() {
                    Some(Value::Ptr(a)) => {
                        let s = self.read_string(*a, span)?;
                        out.push_str(&s);
                    }
                    Some(Value::Int(_)) => {
                        return Err(RuntimeError::FormatString {
                            span,
                            detail: "%s applied to a non-pointer".to_owned(),
                        })
                    }
                    None => {
                        return Err(RuntimeError::FormatString {
                            span,
                            detail: "conversion %s reads a nonexistent argument off the stack"
                                .to_owned(),
                        })
                    }
                },
                Some('n') => {
                    // %n writes through a pointer read off the stack — the
                    // classic exploit payload.
                    return Err(RuntimeError::FormatString {
                        span,
                        detail: "%n write-back conversion in format string".to_owned(),
                    });
                }
                Some(other) => out.push(other),
                None => break,
            }
        }
        let len = out.len() as i64;
        self.outcome.stdout.push_str(&out);
        Ok(len)
    }

    fn lval_addr(&mut self, frame: &mut Frame, lv: &Lvalue) -> Result<u64, RuntimeError> {
        match &lv.kind {
            LvalKind::Var(name) => {
                if let Some(&(addr, _)) = frame.lookup(*name) {
                    Ok(addr)
                } else if let Some(&addr) = self.globals.get(name) {
                    Ok(addr)
                } else {
                    Err(RuntimeError::Unbound(*name, lv.span))
                }
            }
            LvalKind::Deref(e) => match self.eval(frame, e)? {
                Value::Ptr(0) => Err(RuntimeError::NullDeref(lv.span)),
                Value::Ptr(a) => Ok(a),
                Value::Int(0) => Err(RuntimeError::NullDeref(lv.span)),
                Value::Int(v) => Ok(v as u64),
            },
            LvalKind::Field(inner, f) => {
                let base = self.lval_addr(frame, inner)?;
                let tag = self.lval_struct_tag(frame, inner).ok_or_else(|| {
                    RuntimeError::Unsupported("field access on non-struct".to_owned(), lv.span)
                })?;
                let (off, _) = self.field_offset(tag, *f).ok_or_else(|| {
                    RuntimeError::Unsupported(format!("unknown field {f} of struct {tag}"), lv.span)
                })?;
                Ok(base.wrapping_add(off))
            }
        }
    }

    /// The struct tag of an l-value's static type, for field layout.
    fn lval_struct_tag(&self, frame: &Frame, lv: &Lvalue) -> Option<Symbol> {
        let ty = self.lval_type(frame, lv)?;
        match ty.ty {
            Ty::Base(BaseTy::Struct(tag)) => Some(tag),
            _ => None,
        }
    }

    fn lval_type(&self, frame: &Frame, lv: &Lvalue) -> Option<QualType> {
        match &lv.kind {
            LvalKind::Var(name) => frame
                .lookup(*name)
                .map(|(_, t)| t.clone())
                .or_else(|| self.global_types.get(name).cloned()),
            LvalKind::Deref(e) => self.expr_type(frame, e)?.pointee().cloned(),
            LvalKind::Field(inner, f) => {
                let tag = self.lval_struct_tag(frame, inner)?;
                self.field_offset(tag, *f).map(|(_, t)| t)
            }
        }
    }

    fn expr_type(&self, frame: &Frame, e: &Expr) -> Option<QualType> {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::SizeOf(_) => Some(QualType::int()),
            ExprKind::StrLit(_) => Some(QualType::char_ty().ptr_to()),
            ExprKind::Null => Some(QualType::void().ptr_to()),
            ExprKind::Lval(lv) => self.lval_type(frame, lv),
            ExprKind::AddrOf(lv) => Some(self.lval_type(frame, lv)?.ptr_to()),
            ExprKind::Unop(..) => Some(QualType::int()),
            ExprKind::Binop(BinOp::Add | BinOp::Sub, a, _) => {
                // Pointer arithmetic keeps the pointer's type (the logical
                // memory model).
                self.expr_type(frame, a)
            }
            ExprKind::Binop(..) => Some(QualType::int()),
            ExprKind::Cast(ty, _) => Some(ty.clone()),
        }
    }

    fn eval(&mut self, frame: &mut Frame, e: &Expr) -> Result<Value, RuntimeError> {
        self.tick()?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::Null => Ok(Value::NULL),
            ExprKind::StrLit(s) => {
                let addr = self.alloc(s.len() as u64 + 1);
                for (i, b) in s.bytes().enumerate() {
                    self.mem
                        .insert(addr.wrapping_add(i as u64), Value::Int(i64::from(b)));
                }
                self.mem
                    .insert(addr.wrapping_add(s.len() as u64), Value::Int(0));
                Ok(Value::Ptr(addr))
            }
            ExprKind::SizeOf(ty) => Ok(Value::Int(self.size_of(ty) as i64)),
            ExprKind::Lval(lv) => {
                let addr = self.lval_addr(frame, lv)?;
                Ok(self.load(addr))
            }
            ExprKind::AddrOf(lv) => {
                let addr = self.lval_addr(frame, lv)?;
                Ok(Value::Ptr(addr))
            }
            ExprKind::Cast(_, inner) => self.eval(frame, inner),
            ExprKind::Unop(op, a) => {
                let v = self.eval(frame, a)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(x)) => x
                        .checked_neg()
                        .map(Value::Int)
                        .ok_or(RuntimeError::ArithOverflow(e.span)),
                    (UnOp::Not, v) => Ok(Value::Int(i64::from(!v.is_truthy()))),
                    (UnOp::BitNot, Value::Int(x)) => Ok(Value::Int(!x)),
                    _ => Err(RuntimeError::Unsupported(
                        format!("unary {op} on pointer"),
                        e.span,
                    )),
                }
            }
            ExprKind::Binop(op, a, b) => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let va = self.eval(frame, a)?;
                    if !va.is_truthy() {
                        return Ok(Value::Int(0));
                    }
                    let vb = self.eval(frame, b)?;
                    return Ok(Value::Int(i64::from(vb.is_truthy())));
                }
                if *op == BinOp::Or {
                    let va = self.eval(frame, a)?;
                    if va.is_truthy() {
                        return Ok(Value::Int(1));
                    }
                    let vb = self.eval(frame, b)?;
                    return Ok(Value::Int(i64::from(vb.is_truthy())));
                }
                let va = self.eval(frame, a)?;
                let vb = self.eval(frame, b)?;
                self.binop(*op, va, vb, e.span)
            }
        }
    }

    fn binop(&self, op: BinOp, a: Value, b: Value, span: Span) -> Result<Value, RuntimeError> {
        use Value::{Int, Ptr};
        match (op, a, b) {
            // Int arithmetic is checked, not wrapping: the invariants the
            // typechecker relies on are proved over mathematical integers,
            // so leaving the representable range stops execution with
            // `ArithOverflow` rather than wrapping into values the static
            // derivation rules never covered. Pointer arithmetic below
            // stays wrapping — addresses live in a logical mod-2^64 space.
            (BinOp::Add, Int(x), Int(y)) => checked(x.checked_add(y), span),
            (BinOp::Add, Ptr(p), Int(i)) => Ok(Ptr(p.wrapping_add_signed(i))),
            (BinOp::Add, Int(i), Ptr(p)) => Ok(Ptr(p.wrapping_add_signed(i))),
            (BinOp::Sub, Int(x), Int(y)) => checked(x.checked_sub(y), span),
            // `i as u64` is the two's-complement image of `i`, so
            // `wrapping_sub` computes `p - i` mod 2^64 for every `i`
            // including `i64::MIN` (whose negation does not exist — the
            // old `wrapping_add_signed(-i)` panicked on it in debug
            // builds, found by `stqc fuzz`).
            (BinOp::Sub, Ptr(p), Int(i)) => Ok(Ptr(p.wrapping_sub(i as u64))),
            (BinOp::Sub, Ptr(p), Ptr(q)) => Ok(Int(p.wrapping_sub(q) as i64)),
            (BinOp::Mul, Int(x), Int(y)) => checked(x.checked_mul(y), span),
            (BinOp::Div, Int(_), Int(0)) => Err(RuntimeError::DivByZero(span)),
            // `checked_div`/`checked_rem` also catch `i64::MIN / -1`,
            // whose quotient is unrepresentable (a debug-build panic as
            // plain `/` — found by `stqc fuzz`).
            (BinOp::Div, Int(x), Int(y)) => checked(x.checked_div(y), span),
            (BinOp::Mod, Int(_), Int(0)) => Err(RuntimeError::DivByZero(span)),
            (BinOp::Mod, Int(x), Int(y)) => checked(x.checked_rem(y), span),
            (BinOp::Eq, x, y) => Ok(Int(i64::from(raw(x) == raw(y)))),
            (BinOp::Ne, x, y) => Ok(Int(i64::from(raw(x) != raw(y)))),
            (BinOp::Lt, x, y) => Ok(Int(i64::from(raw(x) < raw(y)))),
            (BinOp::Le, x, y) => Ok(Int(i64::from(raw(x) <= raw(y)))),
            (BinOp::Gt, x, y) => Ok(Int(i64::from(raw(x) > raw(y)))),
            (BinOp::Ge, x, y) => Ok(Int(i64::from(raw(x) >= raw(y)))),
            _ => Err(RuntimeError::Unsupported(
                format!("binary {op} on mixed operands"),
                span,
            )),
        }
    }
}

/// Maps a checked signed-arithmetic result to a value, with `None` (the
/// mathematical result is unrepresentable) becoming [`RuntimeError::ArithOverflow`].
fn checked(r: Option<i64>, span: Span) -> Result<Value, RuntimeError> {
    r.map(Value::Int).ok_or(RuntimeError::ArithOverflow(span))
}

/// Raw numeric view of a value for comparisons (pointers compare by
/// address; NULL is 0, so `p != NULL` works as expected).
fn raw(v: Value) -> i64 {
    match v {
        Value::Int(x) => x,
        Value::Ptr(a) => a as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn run(src: &str, entry: &str, args: &[Value]) -> Result<ExecOutcome, RuntimeError> {
        let p = parse_program(src, &["pos", "nonnull", "unique", "untainted"]).unwrap();
        run_entry(&p, entry, args, &NoChecks, InterpConfig::default())
    }

    #[test]
    fn arithmetic_and_locals() {
        let out = run(
            "int f(int x) { int y = x * 2; return y + 1; }",
            "f",
            &[Value::Int(20)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(41)));
    }

    #[test]
    fn while_loop_sums() {
        let out = run(
            "int sum(int n) { int s = 0; int i = 1; while (i <= n) { s += i; i++; } return s; }",
            "sum",
            &[Value::Int(10)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(55)));
    }

    #[test]
    fn for_loop_and_arrays() {
        let out = run(
            r#"
            int f(int n) {
                int* a = malloc(sizeof(int) * n);
                for (int i = 0; i < n; i++) a[i] = i * i;
                return a[3];
            }
            "#,
            "f",
            &[Value::Int(5)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(9)));
    }

    #[test]
    fn null_deref_is_fatal() {
        let e = run("int f() { int* p = NULL; return *p; }", "f", &[]).unwrap_err();
        assert!(matches!(e, RuntimeError::NullDeref(_)));
    }

    #[test]
    fn division_by_zero_is_fatal() {
        let e = run("int f(int x) { return 1 / x; }", "f", &[Value::Int(0)]).unwrap_err();
        assert!(matches!(e, RuntimeError::DivByZero(_)));
    }

    #[test]
    fn struct_fields_have_distinct_cells() {
        let out = run(
            r#"
            struct pair { int a; int b; };
            int f() {
                struct pair p;
                p.a = 1;
                p.b = 2;
                return p.a * 10 + p.b;
            }
            "#,
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(12)));
    }

    #[test]
    fn struct_through_pointer() {
        let out = run(
            r#"
            struct node { int value; struct node* next; };
            int f() {
                struct node* n = malloc(sizeof(struct node));
                n->value = 7;
                n->next = NULL;
                return n->value;
            }
            "#,
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(7)));
    }

    #[test]
    fn address_of_and_deref() {
        let out = run(
            "int f() { int x = 5; int* p = &x; *p = 9; return x; }",
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(9)));
    }

    #[test]
    fn function_calls_pass_values() {
        let out = run(
            r#"
            int square(int x) { return x * x; }
            int f(int a) { int s = square(a); return s + 1; }
            "#,
            "f",
            &[Value::Int(6)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(37)));
    }

    #[test]
    fn printf_writes_stdout() {
        let out = run(
            r#"
            int printf(char * untainted fmt, ...);
            int f() { printf("x=%d s=%s\n", 42, "hi"); return 0; }
            "#,
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.stdout, "x=42 s=hi\n");
        assert_eq!(out.printf_calls, 1);
    }

    #[test]
    fn format_string_vulnerability_detected() {
        // printf(buf) where buf contains a specifier but no argument: the
        // bftpd-style exploit.
        let e = run(
            r#"
            int printf(char * untainted fmt, ...);
            int f() {
                char* buf = "%s%s";
                printf(buf);
                return 0;
            }
            "#,
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::FormatString { .. }));
    }

    #[test]
    fn percent_n_is_always_fatal() {
        let e = run(
            r#"
            int printf(char * untainted fmt, ...);
            int f() { printf("%n", 1); return 0; }
            "#,
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::FormatString { .. }));
    }

    #[test]
    fn runtime_check_failure() {
        use crate::ast::{InstrKind, StmtKind};
        // Build f() { __check_pos(0); } directly.
        let mut p = Program::new();
        p.funcs.push(FuncDef {
            name: Symbol::intern("f"),
            sig: FuncSig {
                params: vec![],
                ret: QualType::void(),
                varargs: false,
            },
            body: vec![Stmt::new(StmtKind::Instr(Instr::new(
                InstrKind::RuntimeCheck(Symbol::intern("pos"), Expr::int(0)),
            )))],
            span: Span::DUMMY,
        });
        struct PosCheck;
        impl QualChecker for PosCheck {
            fn holds(&self, _q: Symbol, v: Value) -> bool {
                matches!(v, Value::Int(x) if x > 0)
            }
        }
        let e = run_entry(&p, "f", &[], &PosCheck, InterpConfig::default()).unwrap_err();
        assert!(matches!(e, RuntimeError::CheckFailed { .. }));
    }

    #[test]
    fn runtime_check_pass_is_counted() {
        let mut p = Program::new();
        p.funcs.push(FuncDef {
            name: Symbol::intern("f"),
            sig: FuncSig {
                params: vec![],
                ret: QualType::void(),
                varargs: false,
            },
            body: vec![Stmt::new(StmtKind::Instr(Instr::new(
                InstrKind::RuntimeCheck(Symbol::intern("pos"), Expr::int(3)),
            )))],
            span: Span::DUMMY,
        });
        struct PosCheck;
        impl QualChecker for PosCheck {
            fn holds(&self, _q: Symbol, v: Value) -> bool {
                matches!(v, Value::Int(x) if x > 0)
            }
        }
        let out = run_entry(&p, "f", &[], &PosCheck, InterpConfig::default()).unwrap();
        assert_eq!(out.checks_passed, 1);
    }

    #[test]
    fn globals_persist_across_calls() {
        let out = run(
            r#"
            int counter = 0;
            void bump() { counter += 1; }
            int f() { bump(); bump(); bump(); return counter; }
            "#,
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(3)));
    }

    #[test]
    fn infinite_loop_runs_out_of_fuel() {
        let p = parse_program("void f() { while (1) { } }", &[]).unwrap();
        let config = InterpConfig {
            max_steps: 1000,
            ..InterpConfig::default()
        };
        let e = run_entry(&p, "f", &[], &NoChecks, config).unwrap_err();
        assert_eq!(e, RuntimeError::OutOfFuel);
    }

    #[test]
    fn runaway_recursion_is_a_runtime_error_not_a_host_crash() {
        let p = parse_program("int f(int x) { int r = f(x + 1); return r; }", &[]).unwrap();
        let e = run_entry(
            &p,
            "f",
            &[Value::Int(0)],
            &NoChecks,
            InterpConfig::default(),
        )
        .unwrap_err();
        assert_eq!(e, RuntimeError::StackOverflow);
    }

    #[test]
    fn ptr_minus_int_min_wraps_instead_of_panicking() {
        // `p - i64::MIN`: negating the subtrahend does not exist in i64,
        // so the subtraction must wrap in u64 space. Found by `stqc fuzz`.
        let out = run(
            "int* f() {
                 int x = 7;
                 int* p = &x;
                 int* q = p - (0 - 9223372036854775807 - 1);
                 return q;
             }",
            "f",
            &[],
        )
        .unwrap();
        let Some(Value::Ptr(q)) = out.ret else {
            panic!("expected a pointer, got {:?}", out.ret)
        };
        // p - MIN  ==  p + 2^63 (mod 2^64).
        assert_eq!(q & (1 << 63), 1 << 63);
    }

    #[test]
    fn ptr_minus_ptr_wraps_instead_of_overflowing() {
        // The difference of two addresses can exceed i64 when computed as
        // `p as i64 - q as i64`; it must be taken mod 2^64 first. Found
        // by `stqc fuzz`.
        let out = run(
            "int f() {
                 int x = 1;
                 int* a = &x;
                 int* b = a + 9223372036854775807;
                 int d = a - b;
                 return d;
             }",
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(i64::MIN + 1)));
    }

    #[test]
    fn int_overflow_is_a_runtime_error_not_a_silent_wrap() {
        // `pos * pos` is statically `pos`; a wrapped product can be
        // negative, which would falsify the proven invariant at run time.
        // Execution must stop at the overflow instead. Found by `stqc
        // fuzz`'s soundness oracle.
        let e = run(
            "int f(int x) { int y = x * x; return y; }",
            "f",
            &[Value::Int(4_000_000_000)],
        )
        .unwrap_err();
        assert!(matches!(e, RuntimeError::ArithOverflow(_)), "{e}");
    }

    #[test]
    fn int_min_negation_and_division_overflow_are_runtime_errors() {
        // `i64::MIN / -1` and `-i64::MIN` are unrepresentable; as plain
        // `/` and `-` they panic in debug builds. Found by `stqc fuzz`.
        for src in [
            "int f(int x) { int y = x / (0 - 1); return y; }",
            "int f(int x) { int y = x % (0 - 1); return y; }",
            "int f(int x) { int y = -x; return y; }",
        ] {
            let e = run(src, "f", &[Value::Int(i64::MIN)]).unwrap_err();
            assert!(matches!(e, RuntimeError::ArithOverflow(_)), "{src}: {e}");
        }
    }

    #[test]
    fn huge_malloc_saturates_the_address_space() {
        // Two back-to-back huge allocations would overflow the bump
        // allocator's counter in debug builds; saturation keeps execution
        // alive (fresh allocations may alias at the top of the address
        // space, which the logical memory model tolerates).
        let out = run(
            "int f() {
                 int* a = malloc(9223372036854775807);
                 int* b = malloc(9223372036854775807);
                 int* c = malloc(8);
                 if (a == b) { return 0 - 1; }
                 return 1;
             }",
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(1)));
    }

    #[test]
    fn self_referential_struct_size_is_finite() {
        // A struct containing itself by value has no finite layout; the
        // bounded size computation must not recurse forever.
        let out = run(
            "struct s { struct s inner; int v; };
             int f() { return sizeof(struct s); }",
            "f",
            &[],
        )
        .unwrap();
        assert!(matches!(out.ret, Some(Value::Int(n)) if n > 0));
    }

    #[test]
    fn unknown_function_errors() {
        let e = run("void f() { mystery(); }", "f", &[]).unwrap_err();
        assert!(matches!(e, RuntimeError::UnknownFunction(..)));
    }

    #[test]
    fn missing_entry_errors() {
        let e = run("void f() { }", "g", &[]).unwrap_err();
        assert!(matches!(e, RuntimeError::NoEntry(_)));
    }

    #[test]
    fn short_circuit_avoids_division() {
        let out = run(
            "int f(int x) { if (x != 0 && 10 / x > 1) return 1; return 0; }",
            "f",
            &[Value::Int(0)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Value::Int(0)));
    }
}
