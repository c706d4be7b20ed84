//! Counted work in the tensor-DSL front end: parsing allocates only what
//! the AST keeps (no string per keyword, punctuation token or dimension),
//! and lowering types each subtree once, so its allocations grow linearly
//! with the length of an expression.

use everest_alloc_counter::{measure, CountingAllocator};
use everest_dsl::ast::{Expr, Kernel, Stmt, TensorTy};
use everest_dsl::{lower, parser, typecheck};

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

/// Allocations of lowering a kernel that returns `a + a + … + a` with
/// `terms` terms. The checker and lowering recurse once per `+`, which
/// takes more than a test thread's 2 MiB of stack at 800 terms in an
/// unoptimized build, so the count is taken on a thread of its own.
fn lower_chain_allocations(terms: usize) -> u64 {
    let chain = vec!["a"; terms].join(" + ");
    let source = format!("kernel f(a: tensor<4xf64>) -> tensor<4xf64> {{ return {chain}; }}");
    let count = move || {
        let program = parser::parse_program(&source).expect("parses");
        typecheck::check_program(&program).expect("type-checks");
        let mut module = None;
        let (allocations, _) = measure(|| module = Some(lower::lower_program(&program)));
        module.expect("ran").expect("lowers");
        allocations
    };
    let thread = std::thread::Builder::new().stack_size(16 << 20).spawn(count);
    thread.expect("thread starts").join().expect("lowering runs")
}

#[test]
fn lowering_allocates_linearly_in_expression_length() {
    let n = 400;
    let (short, long) = (lower_chain_allocations(n), lower_chain_allocations(2 * n));
    println!("{n} terms: {short} allocations, {} terms: {long}", 2 * n);
    assert!(
        (long as f64) < 2.5 * short as f64,
        "{n} terms cost {short} allocations, {} terms {long}",
        2 * n
    );
}
