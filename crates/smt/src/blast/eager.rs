//! The eager memory encoding, kept only as a test oracle for the lazy
//! one: every write and memory ite materializes all `2^addr_width`
//! words, a read is a linear mux chain over them, and a memory equality
//! is the conjunction of all word equalities. Exact in both polarities
//! with no refinement, and exponentially larger.

use std::sync::Arc;

use gila_expr::{BitVecValue, ExprRef, Op};
use gila_sat::Lit;

use super::{MemId, MemNode, Repr, SmtSolver};

impl SmtSolver {
    /// A solver that blasts memories eagerly.
    pub(super) fn new_eager() -> Self {
        SmtSolver {
            eager_memory: true,
            ..Self::default()
        }
    }

    /// The words of a memory node; the eager encoding only builds bases.
    fn eager_words(&self, mem: MemId) -> Arc<Vec<Vec<Lit>>> {
        match &self.mems[mem] {
            MemNode::Base(words) => words.clone(),
            other => unreachable!("eager encoding built a derived memory: {other:?}"),
        }
    }

    /// `addr == at` for a constant address `at`.
    fn eager_select(&mut self, addr: &[Lit], at: usize) -> Lit {
        let at = self.bv_const_bits(&BitVecValue::from_u64(at as u64, addr.len() as u32));
        self.eq_bv(addr, &at)
    }

    /// Blasts a memory operation eagerly; `None` for every other op.
    pub(super) fn blast_mem_eager(&mut self, op: Op, args: &[ExprRef]) -> Option<Repr> {
        let is_mem = |s: &Self, e: ExprRef| matches!(s.cache[&e], Repr::Mem(_));
        let words: Vec<Vec<Lit>> = match op {
            Op::MemRead => {
                let words = self.eager_words(self.mem_arg(args[0]));
                let addr = self.bv_arg(args[1]);
                let mut result = words[0].clone();
                for (a, word) in words.iter().enumerate().skip(1) {
                    let sel = self.eager_select(&addr, a);
                    result = self.mux_bv(sel, word, &result);
                }
                return Some(Repr::Bv(result));
            }
            Op::MemWrite => {
                let words = self.eager_words(self.mem_arg(args[0]));
                let addr = self.bv_arg(args[1]);
                let data = self.bv_arg(args[2]);
                words
                    .iter()
                    .enumerate()
                    .map(|(a, word)| {
                        let sel = self.eager_select(&addr, a);
                        self.mux_bv(sel, &data, word)
                    })
                    .collect()
            }
            Op::Ite if is_mem(self, args[1]) => {
                let c = self.bool_arg(args[0]);
                let t = self.eager_words(self.mem_arg(args[1]));
                let e = self.eager_words(self.mem_arg(args[2]));
                t.iter()
                    .zip(e.iter())
                    .map(|(tw, ew)| self.mux_bv(c, tw, ew))
                    .collect()
            }
            Op::Eq if is_mem(self, args[0]) => {
                let a = self.eager_words(self.mem_arg(args[0]));
                let b = self.eager_words(self.mem_arg(args[1]));
                let mut res = self.tt();
                for (wa, wb) in a.iter().zip(b.iter()) {
                    let we = self.eq_bv(wa, wb);
                    res = self.gate_and(res, we);
                }
                return Some(Repr::Bool(res));
            }
            _ => return None,
        };
        Some(Repr::Mem(self.push_mem(MemNode::Base(Arc::new(words)))))
    }
}

#[cfg(test)]
mod tests {
    use super::super::SmtResult;
    use super::*;
    use gila_expr::{eval, Env, ExprCtx, MemValue, Sort, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
        pool[rng.gen_range(0..pool.len())]
    }

    /// A random formula over two memory variables, a constant memory,
    /// and writes and ites stacked on them. Memory equalities land in
    /// positive, negative and mixed (`iff`/`ite`) positions; some atoms
    /// are valid read-over-write facts, so negations give UNSAT cases.
    fn random_formula(rng: &mut StdRng, ctx: &mut ExprCtx) -> ExprRef {
        let addr_width = rng.gen_range(1..=3u32);
        let data_width = rng.gen_range(1..=3u32);
        let sort = Sort::Mem {
            addr_width,
            data_width,
        };
        let m0 = ctx.var("m0", sort);
        let m1 = ctx.var("m1", sort);
        let mut init = MemValue::zeroed(addr_width, data_width);
        for a in 0..1u64 << addr_width {
            if rng.gen_bool(0.5) {
                init = init.write_word(a, BitVecValue::from_u64(rng.gen(), data_width));
            }
        }
        let c = ctx.mem_const(init);
        let a0 = ctx.var("a0", Sort::Bv(addr_width));
        let a1 = ctx.var("a1", Sort::Bv(addr_width));
        let ac = ctx.bv_u64(rng.gen(), addr_width);
        let d0 = ctx.var("d0", Sort::Bv(data_width));
        let d1 = ctx.var("d1", Sort::Bv(data_width));
        let dc = ctx.bv_u64(rng.gen(), data_width);
        let p = ctx.var("p", Sort::Bool);
        let addrs = [a0, a1, ac];
        let datas = [d0, d1, dc];
        let addr_eq = ctx.eq(a0, a1);
        let conds = [p, addr_eq];

        let mut mems = vec![m0, m1, c];
        for _ in 0..rng.gen_range(2..6) {
            let m = pick(rng, &mems);
            let derived = if rng.gen_bool(0.6) {
                let (a, d) = (pick(rng, &addrs), pick(rng, &datas));
                ctx.mem_write(m, a, d)
            } else {
                let (c, other) = (pick(rng, &conds), pick(rng, &mems));
                ctx.ite(c, m, other)
            };
            mems.push(derived);
        }

        let mut atoms = Vec::new();
        for _ in 0..rng.gen_range(2..5) {
            let atom = match rng.gen_range(0..6) {
                0 | 1 => {
                    let (x, y) = (pick(rng, &mems), pick(rng, &mems));
                    ctx.eq(x, y)
                }
                2 => {
                    let r = ctx.mem_read(pick(rng, &mems), pick(rng, &addrs));
                    ctx.eq(r, pick(rng, &datas))
                }
                3 => {
                    // Valid: a write's own address reads back its data.
                    let (m, a, d) = (pick(rng, &mems), pick(rng, &addrs), pick(rng, &datas));
                    let w = ctx.mem_write(m, a, d);
                    let r = ctx.mem_read(w, a);
                    ctx.eq(r, d)
                }
                4 => {
                    // Valid: the second of two writes to one address wins.
                    let (m, a) = (pick(rng, &mems), pick(rng, &addrs));
                    let (d, e) = (pick(rng, &datas), pick(rng, &datas));
                    let w1 = ctx.mem_write(m, a, d);
                    let w2 = ctx.mem_write(w1, a, e);
                    let w = ctx.mem_write(m, a, e);
                    ctx.eq(w2, w)
                }
                _ => p,
            };
            atoms.push(atom);
        }

        let mut f = atoms[0];
        for &atom in &atoms[1..] {
            f = match rng.gen_range(0..6) {
                0 => ctx.and(f, atom),
                1 => ctx.or(f, atom),
                2 => ctx.iff(f, atom),
                3 => ctx.implies(atom, f),
                4 => {
                    let na = ctx.not(atom);
                    ctx.and(f, na)
                }
                _ => {
                    let other = pick(rng, &atoms);
                    ctx.ite(atom, f, other)
                }
            };
        }
        if rng.gen_bool(0.5) {
            ctx.not(f)
        } else {
            f
        }
    }

    /// Binds every variable of `f` to its model value (unblasted ones to
    /// zero) and evaluates `f`.
    fn eval_in_model(smt: &SmtSolver, ctx: &ExprCtx, f: ExprRef) -> bool {
        let mut env = Env::new();
        for v in ctx.vars_of(&[f]) {
            let value = smt
                .try_model_value(ctx, v)
                .unwrap_or_else(|| match ctx.sort_of(v) {
                    Sort::Bool => Value::Bool(false),
                    Sort::Bv(w) => Value::Bv(BitVecValue::zero(w)),
                    Sort::Mem {
                        addr_width,
                        data_width,
                    } => Value::Mem(MemValue::zeroed(addr_width, data_width)),
                });
            env.bind(v, value);
        }
        eval(ctx, f, &env).expect("all vars bound").as_bool()
    }

    #[test]
    fn lazy_memory_encoding_matches_eager_and_eval() {
        let mut rng = StdRng::seed_from_u64(0x1A2B);
        let (mut sat, mut unsat) = (0, 0);
        for round in 0..300 {
            let mut ctx = ExprCtx::new();
            let f = random_formula(&mut rng, &mut ctx);
            let nf = ctx.not(f);
            // One lazy solver per round checks f in a scope and then ¬f
            // as an assumption, the way the engine reuses a solver.
            let mut lazy = SmtSolver::new();
            lazy.push_scope();
            lazy.assert(&ctx, f);
            let lazy_f = lazy.check();
            if lazy_f.is_sat() {
                assert!(
                    eval_in_model(&lazy, &ctx, f),
                    "round {round}: lazy model violates f"
                );
            }
            lazy.pop_scope();
            let lazy_nf = lazy.check_assuming(&ctx, &[nf]);
            if lazy_nf.is_sat() {
                assert!(
                    eval_in_model(&lazy, &ctx, nf),
                    "round {round}: lazy model violates ¬f"
                );
            }
            for (goal, lazy_result) in [(f, lazy_f), (nf, lazy_nf)] {
                let mut eager = SmtSolver::new_eager();
                eager.assert(&ctx, goal);
                let eager_result = eager.check();
                assert_eq!(
                    lazy_result, eager_result,
                    "round {round}: lazy and eager disagree"
                );
                match eager_result {
                    SmtResult::Sat => sat += 1,
                    SmtResult::Unsat => unsat += 1,
                    SmtResult::Unknown(_) => unreachable!("no limits set"),
                }
            }
        }
        assert!(
            sat >= 50 && unsat >= 50,
            "weak mix: {sat} SAT, {unsat} UNSAT"
        );
    }
}
