//! The workspace symbol graph: per-crate symbol tables, a conservative
//! call graph, and the interprocedural `alloc-reach` / `panic-reach`
//! pass.
//!
//! ## Resolution rules (deliberately conservative)
//!
//! * **Bare calls** (`helper(…)`) resolve crate-locally: every free
//!   function of that name in the calling crate.
//! * **Qualified calls** (`a::b::name(…)`) look at the second-to-last
//!   segment. `Self::name` resolves within the enclosing impl's type;
//!   a known *trait* name widens to that trait's default body plus every
//!   impl of the trait; a known *type* name resolves to that type's
//!   methods; anything else is treated as a module qualifier and widens
//!   to free functions of that name in every **linkable** library crate
//!   (so `codec::snap(…)` called from `adn-sim` still reaches the
//!   `adn-net` definition).
//! * **Method calls** (`x.receive(…)`) have no receiver type, so they
//!   widen to *every* known method of that name — impl methods and trait
//!   defaults alike — in every linkable crate. This is the
//!   trait-dispatch widening rule: a `plane.receive(…)` call reaches
//!   every `AlgorithmPlane` impl's `receive`.
//! * **Linkable** means the calling crate itself plus the crates its
//!   `Cargo.toml` depends on, transitively: a private `row` helper in
//!   `adn-core` cannot be `adn-analysis`'s `Table::row`, whatever the
//!   names say. (The price: a trait object whose impl lives *downstream*
//!   of the caller is not followed.) A crate whose manifest is not part
//!   of the audited set links against everything.
//! * Names that resolve to nothing are **external leaves** (std,
//!   core, …). The known-allocating std surface is banned by name at
//!   the call site (`to_vec`, `collect`, `clone`, …), so leaves need no
//!   further analysis.
//!
//! ## The reach pass
//!
//! Roots are every `// audit: no-alloc` region and every
//! `// audit: no-alloc-fn` contract function. A breadth-first walk from
//! all roots visits each reachable workspace function once; each visited
//! body is scanned for the banned allocation/panic constructs (skipping
//! spans already covered by an explicit region, which the stricter
//! direct pass reports). Functions carrying a `no-alloc-fn` contract are
//! trusted at their call sites — they are roots of their own — so the
//! analysis is modular: annotating a hot helper moves its obligations to
//! its own definition instead of re-deriving them per caller.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::Lexed;
use crate::parse::{CallKind, CallSite, FileAst, Owner};

/// One file participating in the symbol graph (library-crate source).
pub(crate) struct GraphFile<'a> {
    pub rel: &'a str,
    pub src: &'a str,
    pub lexed: &'a Lexed,
    pub ast: &'a FileAst,
    /// Crate name in `use` form (`adn_graph`).
    pub crate_name: String,
    /// Token ranges of `// audit: no-alloc` block regions.
    pub no_alloc_regions: &'a [(usize, usize)],
    /// Token ranges bound by `// audit: no-alloc-fn` (function bodies).
    pub contract_regions: &'a [(usize, usize)],
}

/// Global function id: (file index, fn index within that file's AST).
type FnRef = (usize, usize);

/// What a banned construct does, for lint naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BannedKind {
    Alloc,
    Panic,
}

/// A classified banned construct at one token.
pub(crate) struct Banned {
    pub kind: BannedKind,
    /// Display name: `clone`, `vec!`, `Vec::new`, `panic!`, …
    pub construct: &'static str,
    pub line: u32,
}

/// Classifies the token at `i` as a banned construct, mirroring the
/// region lint's rules (slice indexing and `assert!` stay allowed).
pub(crate) fn classify_banned(toks: &[crate::lexer::Tok], src: &str, i: usize) -> Option<Banned> {
    use crate::lexer::TokKind;
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let word = t.text(src);
    let bang = toks.get(i + 1).is_some_and(|n| n.is_punct(b'!'));
    let path = |seg: &str| {
        toks.get(i + 1).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(src, seg))
    };
    let (kind, construct) = match word {
        "collect" => (BannedKind::Alloc, "collect"),
        "to_vec" => (BannedKind::Alloc, "to_vec"),
        "clone" => (BannedKind::Alloc, "clone"),
        "vec" if bang => (BannedKind::Alloc, "vec!"),
        "format" if bang => (BannedKind::Alloc, "format!"),
        "Vec" if path("new") => (BannedKind::Alloc, "Vec::new"),
        "Box" if path("new") => (BannedKind::Alloc, "Box::new"),
        "String" if path("from") => (BannedKind::Alloc, "String::from"),
        "unwrap" => (BannedKind::Panic, "unwrap"),
        "expect" => (BannedKind::Panic, "expect"),
        "panic" if bang => (BannedKind::Panic, "panic!"),
        _ => return None,
    };
    Some(Banned {
        kind,
        construct,
        line: t.line,
    })
}

/// A reach finding, handed back to the lint engine for rendering.
pub(crate) struct ReachFinding {
    /// File of the offending construct (the reached function's file).
    pub file: String,
    pub line: u32,
    pub kind: BannedKind,
    pub message: String,
}

/// Crate name → the crates it depends on, transitively (`use` form).
pub(crate) type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Builds the symbol graph over `files` and runs the reach pass; `deps`
/// bounds widening (see the module docs).
pub(crate) fn reach_pass(files: &[GraphFile<'_>], deps: &CrateDeps) -> Vec<ReachFinding> {
    let symbols = Symbols::build(files, deps);
    let mut findings = Vec::new();

    // Roots in file order: block regions first, then contract fns —
    // both already in token order within a file.
    struct Root {
        file: usize,
        range: (usize, usize),
        desc: String,
    }
    let mut roots = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for &range in f.no_alloc_regions {
            let line = f.lexed.toks.get(range.0).map_or(1, |t| t.line);
            roots.push(Root {
                file: fi,
                range,
                desc: format!("the `// audit: no-alloc` region at {}:{line}", f.rel),
            });
        }
        for &range in f.contract_regions {
            let owner = f.ast.fns.iter().find(|fn_item| fn_item.body == Some(range));
            let line = owner.map_or_else(
                || f.lexed.toks.get(range.0).map_or(1, |t| t.line),
                |fn_item| fn_item.line,
            );
            let name = owner.map_or("?", |fn_item| fn_item.name.as_str());
            roots.push(Root {
                file: fi,
                range,
                desc: format!(
                    "the `// audit: no-alloc-fn` contract on `{name}` at {}:{line}",
                    f.rel
                ),
            });
        }
    }

    // Breadth-first from every root at once. `pred` records the first
    // discovery (root + calling fn), which renders as the shortest chain.
    let mut visited: BTreeSet<FnRef> = BTreeSet::new();
    let mut pred: BTreeMap<FnRef, (Option<FnRef>, usize)> = BTreeMap::new();
    let mut queue: VecDeque<FnRef> = VecDeque::new();

    for (ri, root) in roots.iter().enumerate() {
        let f = &files[root.file];
        for fn_item in &f.ast.fns {
            for call in &fn_item.calls {
                if call.tok < root.range.0 || call.tok > root.range.1 {
                    continue;
                }
                let ctx = CallCtx {
                    crate_name: &f.crate_name,
                    self_ty: owner_self_ty(f.ast, fn_item.owner),
                };
                for target in symbols.resolve(call, &ctx) {
                    if symbols.contracts.contains(&target) || !visited.insert(target) {
                        continue;
                    }
                    pred.insert(target, (None, ri));
                    queue.push_back(target);
                }
            }
        }
    }

    while let Some(cur) = queue.pop_front() {
        let f = &files[cur.0];
        let fn_item = &f.ast.fns[cur.1];
        let Some((open, close)) = fn_item.body else {
            continue;
        };
        // Scan the body for banned constructs, skipping spans covered by
        // an explicit region (the direct pass owns those findings).
        let in_region = |tok: usize| {
            f.no_alloc_regions
                .iter()
                .chain(f.contract_regions.iter())
                .any(|&(a, b)| a <= tok && tok <= b)
        };
        for i in open..=close.min(f.lexed.toks.len().saturating_sub(1)) {
            if in_region(i) {
                continue;
            }
            if let Some(b) = classify_banned(&f.lexed.toks, f.src, i) {
                let (_, ri) = pred[&cur];
                let chain = render_chain(files, &pred, cur);
                let verb = match (b.kind, b.construct) {
                    (BannedKind::Alloc, _) => "allocates",
                    (BannedKind::Panic, "panic!") => "panics",
                    (BannedKind::Panic, _) => "may panic",
                };
                findings.push(ReachFinding {
                    file: f.rel.to_string(),
                    line: b.line,
                    kind: b.kind,
                    message: format!(
                        "`{}` {verb} in `{}`, reachable from {}{chain}",
                        b.construct, fn_item.name, roots[ri].desc
                    ),
                });
            }
        }
        // Expand the body's calls.
        let ctx = CallCtx {
            crate_name: &f.crate_name,
            self_ty: owner_self_ty(f.ast, fn_item.owner),
        };
        for call in &fn_item.calls {
            for target in symbols.resolve(call, &ctx) {
                if symbols.contracts.contains(&target) || !visited.insert(target) {
                    continue;
                }
                let (_, ri) = pred[&cur];
                pred.insert(target, (Some(cur), ri));
                queue.push_back(target);
            }
        }
    }

    findings
}

fn owner_self_ty(ast: &FileAst, owner: Owner) -> Option<&str> {
    match owner {
        Owner::Impl(idx) => Some(ast.impls[idx].self_ty.as_str()),
        _ => None,
    }
}

/// Renders ` via `a` → `b`` for the call chain from the root's seed to
/// `cur` (inclusive), eliding long middles.
fn render_chain(
    files: &[GraphFile<'_>],
    pred: &BTreeMap<FnRef, (Option<FnRef>, usize)>,
    cur: FnRef,
) -> String {
    let mut names: Vec<&str> = Vec::new();
    let mut walk = Some(cur);
    while let Some(r) = walk {
        names.push(files[r.0].ast.fns[r.1].name.as_str());
        walk = pred.get(&r).and_then(|&(p, _)| p);
    }
    names.reverse();
    if names.len() <= 1 {
        return String::new();
    }
    let shown: Vec<&str> = if names.len() > 5 {
        let mut v = names[..2].to_vec();
        v.push("…");
        v.extend_from_slice(&names[names.len() - 2..]);
        v
    } else {
        names
    };
    format!(
        " via {}",
        shown
            .iter()
            .map(|n| format!("`{n}`"))
            .collect::<Vec<_>>()
            .join(" → ")
    )
}

/// Call-site context: the calling crate and (for `Self::` paths) the
/// enclosing impl's type.
struct CallCtx<'a> {
    crate_name: &'a str,
    self_ty: Option<&'a str>,
}

/// The workspace symbol tables.
struct Symbols<'a> {
    /// Crate of each graph file, by file index.
    crate_of: Vec<&'a str>,
    deps: &'a CrateDeps,
    /// Free functions by (crate, name).
    free: BTreeMap<(String, String), Vec<FnRef>>,
    /// All methods (impl methods + trait defaults) by name.
    methods: BTreeMap<String, Vec<FnRef>>,
    /// Methods by (type-or-trait name, method name).
    by_type: BTreeMap<(String, String), Vec<FnRef>>,
    /// Impl methods by (trait name, method name) — dispatch widening.
    trait_impls: BTreeMap<(String, String), Vec<FnRef>>,
    /// Known trait names (declared anywhere in the graph scope).
    trait_names: BTreeSet<String>,
    /// Known type names (self types of impls).
    type_names: BTreeSet<String>,
    /// Functions carrying a `no-alloc-fn` contract (trusted at calls).
    contracts: BTreeSet<FnRef>,
}

impl<'a> Symbols<'a> {
    fn build(files: &'a [GraphFile<'_>], deps: &'a CrateDeps) -> Symbols<'a> {
        let mut s = Symbols {
            crate_of: files.iter().map(|f| f.crate_name.as_str()).collect(),
            deps,
            free: BTreeMap::new(),
            methods: BTreeMap::new(),
            by_type: BTreeMap::new(),
            trait_impls: BTreeMap::new(),
            trait_names: BTreeSet::new(),
            type_names: BTreeSet::new(),
            contracts: BTreeSet::new(),
        };
        for (fi, f) in files.iter().enumerate() {
            for t in &f.ast.traits {
                if !t.in_test {
                    s.trait_names.insert(t.name.clone());
                }
            }
            for imp in &f.ast.impls {
                if !imp.in_test && !imp.self_ty.is_empty() {
                    s.type_names.insert(imp.self_ty.clone());
                }
            }
            for (fj, fn_item) in f.ast.fns.iter().enumerate() {
                if fn_item.in_test {
                    continue;
                }
                let id: FnRef = (fi, fj);
                if let Some(range) = fn_item.body {
                    if f.contract_regions.contains(&range) {
                        s.contracts.insert(id);
                    }
                }
                match fn_item.owner {
                    Owner::Free => {
                        s.free
                            .entry((f.crate_name.clone(), fn_item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    Owner::Impl(idx) => {
                        let imp = &f.ast.impls[idx];
                        s.methods.entry(fn_item.name.clone()).or_default().push(id);
                        s.by_type
                            .entry((imp.self_ty.clone(), fn_item.name.clone()))
                            .or_default()
                            .push(id);
                        if let Some(tr) = &imp.trait_name {
                            s.trait_impls
                                .entry((tr.clone(), fn_item.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                    Owner::Trait(idx) => {
                        // Only default bodies participate; bodyless
                        // declarations have nothing to scan or expand.
                        if fn_item.body.is_some() {
                            let tr = &f.ast.traits[idx];
                            s.methods.entry(fn_item.name.clone()).or_default().push(id);
                            s.by_type
                                .entry((tr.name.clone(), fn_item.name.clone()))
                                .or_default()
                                .push(id);
                            s.trait_impls
                                .entry((tr.name.clone(), fn_item.name.clone()))
                                .or_default()
                                .push(id);
                        }
                    }
                }
            }
        }
        s
    }

    /// Whether code in crate `from` can link against `target`'s crate.
    fn links(&self, from: &str, target: FnRef) -> bool {
        let to = self.crate_of[target.0];
        from == to || self.deps.get(from).is_none_or(|d| d.contains(to))
    }

    /// Every method named `name` in a crate `from` links against.
    fn methods_linked(&self, from: &str, name: &str) -> Vec<FnRef> {
        let all = self.methods.get(name).into_iter().flatten();
        all.copied().filter(|&t| self.links(from, t)).collect()
    }

    /// Every free function named `name` in a crate `from` links against
    /// (used for module-qualified calls, which may cross crates).
    fn free_linked(&self, from: &str, name: &str) -> Vec<FnRef> {
        self.free
            .iter()
            .filter(|((_, n), _)| n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .filter(|&t| self.links(from, t))
            .collect()
    }

    fn resolve(&self, call: &CallSite, ctx: &CallCtx<'_>) -> Vec<FnRef> {
        let name = call.segs.last().map_or("", |s| s.as_str());
        let mut out: Vec<FnRef> = match call.kind {
            CallKind::Method => self.methods_linked(ctx.crate_name, name),
            CallKind::Bare => self
                .free
                .get(&(ctx.crate_name.to_string(), name.to_string()))
                .cloned()
                .unwrap_or_default(),
            CallKind::Qualified => {
                let q = call.segs[call.segs.len() - 2].as_str();
                if q.is_empty() {
                    // `<T as Trait>::name(…)` — widen like a method call.
                    let mut v = self.methods_linked(ctx.crate_name, name);
                    v.extend(self.free_linked(ctx.crate_name, name));
                    v
                } else if q == "Self" {
                    ctx.self_ty
                        .and_then(|ty| self.by_type.get(&(ty.to_string(), name.to_string())))
                        .cloned()
                        .unwrap_or_default()
                } else if self.trait_names.contains(q) {
                    let mut v = self
                        .trait_impls
                        .get(&(q.to_string(), name.to_string()))
                        .cloned()
                        .unwrap_or_default();
                    v.extend(
                        self.by_type
                            .get(&(q.to_string(), name.to_string()))
                            .into_iter()
                            .flatten()
                            .copied(),
                    );
                    v
                } else if self.type_names.contains(q) {
                    self.by_type
                        .get(&(q.to_string(), name.to_string()))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    // Module qualifier (`codec::snap`, `std::mem::take`):
                    // free functions of that name in any linkable crate.
                    self.free_linked(ctx.crate_name, name)
                }
            }
        };
        out.sort_unstable();
        out.dedup();
        out
    }
}
