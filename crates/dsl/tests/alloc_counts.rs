//! Counted work in the tensor-DSL front end and the IR analyses behind
//! `everestc check`: parsing allocates only what the AST keeps (no string
//! per keyword, punctuation token or dimension), lowering types each
//! subtree once, and the footprint summarizes each function in one pass
//! that keeps no per-op state, so their allocations grow linearly with the
//! length of an expression. The lints hold no more state than the values
//! live at one op, so theirs do not grow at all on a chain.

use everest_alloc_counter::{measure, CountingAllocator};
use everest_dsl::ast::{Expr, Kernel, Program, Stmt, TensorTy};
use everest_dsl::{lower, parser, typecheck};
use everest_ir::{check_module, footprint::module_footprints, Module};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Keywords, punctuation, fused dimensions, calls with lists, literals and
/// every binary precedence level. No list in it is longer than four
/// items, so each heap block its AST owns is one allocation (a `Vec`
/// starts at four slots).
const KERNEL: &str = "
kernel blend(a: tensor<8x8xf64>, b: tensor<8x8xf64>) -> tensor<8xf64> {
    var c = a @ b + 2.0 * a;
    var d = stencil(relu(c - b), [0.25, 0.5, 0.25]);
    return reduce_sum(d, [1]);
}
";

fn shape_blocks(ty: &TensorTy) -> u64 {
    u64::from(!ty.shape.is_empty())
}

fn expr_blocks(expr: &Expr) -> u64 {
    match expr {
        Expr::Var { .. } => 1,
        Expr::Num { .. } => 0,
        Expr::Binary { lhs, rhs, .. } => 2 + expr_blocks(lhs) + expr_blocks(rhs),
        Expr::Call { args, list, .. } => {
            let list = list.as_ref().map_or(0, |l| u64::from(!l.is_empty()));
            1 + u64::from(!args.is_empty()) + list + args.iter().map(expr_blocks).sum::<u64>()
        }
    }
}

/// The heap blocks a kernel's AST owns: every name, non-empty list and box.
fn owned_blocks(kernel: &Kernel) -> u64 {
    let params: u64 = kernel.params.iter().map(|p| 1 + shape_blocks(&p.ty)).sum();
    let body: u64 = kernel
        .body
        .iter()
        .map(|stmt| match stmt {
            Stmt::Var { expr, .. } => 1 + expr_blocks(expr),
            Stmt::Return { expr, .. } => expr_blocks(expr),
        })
        .sum();
    1 + 1 + params + shape_blocks(&kernel.ret) + 1 + body
}

fn parse_allocations(copies: usize) -> u64 {
    let source = KERNEL.repeat(copies);
    let mut program = None;
    let (allocations, _) = measure(|| program = Some(parser::parse_program(&source)));
    assert_eq!(program.expect("ran").expect("parses").kernels.len(), copies);
    allocations
}

#[test]
fn parsing_allocates_only_what_the_ast_owns() {
    let program = parser::parse_program(KERNEL).expect("parses");
    let blocks = owned_blocks(&program.kernels[0]);
    assert_eq!(blocks, 32, "the kernel's AST changed: recount its blocks");
    let copies = 64;
    let (once, twice) = (parse_allocations(copies), parse_allocations(2 * copies));
    // Doubling the source adds one regrowth each to the token buffer and
    // to the kernel list, and otherwise exactly the second half's ASTs.
    let grown = twice - once;
    println!("{copies} more kernels of {blocks} blocks: {grown} allocations");
    assert!(
        grown <= copies as u64 * blocks + 2,
        "{copies} more kernels of {blocks} blocks each cost {grown} allocations"
    );
}

/// Runs `count` on a kernel that returns `a + a + … + a` with `terms`
/// terms. The checker and lowering recurse once per `+`, which takes more
/// than a test thread's 2 MiB of stack at 800 terms in an unoptimized
/// build, so the count is taken on a thread of its own.
fn on_chain(terms: usize, count: fn(&Program) -> u64) -> u64 {
    let chain = vec!["a"; terms].join(" + ");
    let source = format!("kernel f(a: tensor<4xf64>) -> tensor<4xf64> {{ return {chain}; }}");
    let run = move || {
        let program = parser::parse_program(&source).expect("parses");
        typecheck::check_program(&program).expect("type-checks");
        count(&program)
    };
    let thread = std::thread::Builder::new().stack_size(16 << 20).spawn(run);
    thread.expect("thread starts").join().expect("the count runs")
}

/// Allocations of lowering the chain.
fn lowering(program: &Program) -> u64 {
    let mut module = None;
    let (allocations, _) = measure(|| module = Some(lower::lower_program(program)));
    module.expect("ran").expect("lowers");
    allocations
}

/// Allocations of `analysis` on the lowered chain.
fn on_lowered(program: &Program, analysis: fn(&Module)) -> u64 {
    let module = lower::lower_program(program).expect("lowers");
    measure(|| analysis(&module)).0
}

fn footprints(module: &Module) {
    assert_eq!(module_footprints(module).len(), 1, "one kernel, one summary");
}

fn lints(module: &Module) {
    assert!(check_module(module).is_empty(), "a chain is clean");
}

/// The allocations of `count` on chains of `n` and `2n` terms.
fn doubled(n: usize, count: fn(&Program) -> u64) -> (u64, u64) {
    let (short, long) = (on_chain(n, count), on_chain(2 * n, count));
    println!("{n} terms: {short} allocations, {} terms: {long}", 2 * n);
    (short, long)
}

#[test]
fn lowering_allocates_linearly_in_expression_length() {
    let n = 400;
    let (short, long) = doubled(n, lowering);
    assert!(
        (long as f64) < 2.5 * short as f64,
        "{n} terms cost {short} allocations, {} terms {long}",
        2 * n
    );
}

/// The engine hands each op's state to the footprint's visitor instead of
/// recording a copy per op, and each function is summarized once: a
/// recorded copy of a state that maps every value so far is quadratic.
#[test]
fn footprints_allocate_linearly_in_expression_length() {
    let n = 400;
    let (short, long) = doubled(n, |program| on_lowered(program, footprints));
    assert!(
        (long as f64) < 2.5 * short as f64,
        "{n} terms cost {short} allocations, {} terms {long}",
        2 * n
    );
}

/// Along a chain at most two values are live and no value is an integer
/// or carries a label, so the lints' states stay the same size and a lint
/// that reads them allocates nothing per op.
#[test]
fn lints_allocate_the_same_on_any_chain_length() {
    let n = 400;
    let (short, long) = doubled(n, |program| on_lowered(program, lints));
    assert!(long <= short + 8, "{n} terms cost {short} allocations, {} terms {long}", 2 * n);
}
