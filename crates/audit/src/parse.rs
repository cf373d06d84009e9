//! A recursive-descent **item parser** on top of the lexer.
//!
//! The graph-based lints (alloc/panic reachability, layering) need more
//! syntax than token adjacency: which functions a file defines, which impl
//! block each one lives in, which trait that impl implements, and which
//! functions each body calls. This module extracts exactly that — and
//! nothing more — from the token stream:
//!
//! * `use` trees, flattened into leaf paths (`use a::{b, c::d}` becomes
//!   `a::b` and `a::c::d`) — the layering lint's input;
//! * `fn` items with their body token ranges, owners (free, `impl`
//!   method, or trait declaration), and `#[cfg(test)]` status;
//! * `impl` blocks (`impl Type` / `impl Trait for Type`) and `trait`
//!   declarations with their method lists — the call graph's dispatch
//!   tables;
//! * call sites inside every fn body: bare calls (`helper(…)`),
//!   qualified calls (`Type::new(…)`, `module::f(…)`, `Self::f(…)`),
//!   and method calls (`x.receive(…)`), each with its path segments.
//!
//! It is *not* a Rust parser: expressions, types, generics, and patterns
//! are skipped by delimiter balance. That is deliberate — everything the
//! lints consume is named above, and anything else the parser understood
//! would be over-approximated away by the call graph regardless. Known
//! blind spots (functions passed as values, macro-generated items) are
//! documented in the ROADMAP.

use crate::lexer::{Lexed, Tok, TokKind};

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `name(…)` — a bare path of one segment.
    Bare,
    /// `a::b::name(…)` — the segments before `name` are in
    /// [`CallSite::segs`].
    Qualified,
    /// `recv.name(…)` — resolved by name over every known method.
    Method,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    /// Path segments, callee name last (`["Vec", "new"]`; method and
    /// bare calls have exactly one segment).
    pub segs: Vec<String>,
    /// Token index of the callee-name token.
    pub tok: usize,
}

/// Who owns a fn item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// A free function (module-level).
    Free,
    /// A method inside `impls[idx]`.
    Impl(usize),
    /// A declaration (or default body) inside `traits[idx]`.
    Trait(usize),
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range `(open_brace, close_brace)` of the body; `None` for
    /// bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    pub owner: Owner,
    /// Whether the item sits under `#[cfg(test)]`.
    pub in_test: bool,
    /// Call sites inside the body, in token order.
    pub calls: Vec<CallSite>,
}

/// One `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// Last path ident of the self type (`Wrap` for `impl T for Wrap<X>`).
    pub self_ty: String,
    /// Last path ident of the implemented trait, if any.
    pub trait_name: Option<String>,
    pub in_test: bool,
    /// Indices into [`FileAst::fns`] of the methods defined here.
    pub fn_ids: Vec<usize>,
}

/// One `trait` declaration.
#[derive(Debug, Clone)]
pub struct TraitItem {
    pub name: String,
    pub in_test: bool,
    /// Indices into [`FileAst::fns`] of the methods declared here.
    pub fn_ids: Vec<usize>,
}

/// One flattened `use` leaf path.
#[derive(Debug, Clone)]
pub struct UseItem {
    /// Path segments (`["std", "sync", "Mutex"]`). Leading `crate`,
    /// `self`, and `super` segments are kept verbatim.
    pub segs: Vec<String>,
    pub line: u32,
}

/// Everything the graph lints need from one file.
#[derive(Debug, Default)]
pub struct FileAst {
    pub fns: Vec<FnItem>,
    pub impls: Vec<ImplItem>,
    pub traits: Vec<TraitItem>,
    pub uses: Vec<UseItem>,
}

/// Keywords that look like `name(` call sites but never are.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "loop", "break", "continue", "let", "else", "in",
    "move", "as", "ref", "mut", "fn",
];

/// Parses one lexed file. `test_spans` are the `#[cfg(test)]` line spans
/// from the lint engine; items whose defining line falls inside one are
/// flagged `in_test` (and excluded from the workspace symbol graph).
pub fn parse(src: &str, lexed: &Lexed, test_spans: &[(u32, u32)]) -> FileAst {
    let mut p = Parser {
        src,
        toks: &lexed.toks,
        test_spans,
        out: FileAst::default(),
    };
    p.items(0, lexed.toks.len(), Owner::Free);
    p.out
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Tok],
    test_spans: &'a [(u32, u32)],
    out: FileAst,
}

impl Parser<'_> {
    fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| a <= line && line <= b)
    }

    fn text(&self, i: usize) -> &str {
        self.toks[i].text(self.src)
    }

    fn is_ident(&self, i: usize, word: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(self.src) == word)
    }

    fn is_punct(&self, i: usize, b: u8) -> bool {
        self.toks.get(i).is_some_and(|t| t.is_punct(b))
    }

    /// Index just past the `]` matching `#[` / `#![` whose `#` is at `i`.
    fn skip_attr(&self, i: usize) -> usize {
        let mut j = i + 1; // past `#`
        if self.is_punct(j, b'!') {
            j += 1;
        }
        if !self.is_punct(j, b'[') {
            return i + 1;
        }
        let mut depth = 0i32;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        return j + 1;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// Index of the `}` matching the `{` at `open` (or `toks.len()`).
    fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0i32;
        for i in open..self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct(b'{') => depth += 1,
                TokKind::Punct(b'}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.toks.len()
    }

    /// Skips one non-fn item starting at `i`: advances past the first
    /// `;` at delimiter depth 0, or past the first balanced `{…}` group,
    /// whichever comes first.
    fn skip_item(&self, mut i: usize) -> usize {
        let mut depth = 0i32;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') => {
                    return self.match_brace(i) + 1;
                }
                TokKind::Punct(b';') if depth <= 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Parses the items in token range `lo..hi` with the given owner.
    fn items(&mut self, lo: usize, hi: usize, owner: Owner) {
        let mut i = lo;
        while i < hi {
            let t = &self.toks[i];
            match t.kind {
                TokKind::Punct(b'#') => i = self.skip_attr(i),
                TokKind::Ident => {
                    let word = self.text(i);
                    match word {
                        // Visibility and fn qualifiers: step over them so
                        // the next iteration sees the item keyword.
                        "pub" => {
                            i += 1;
                            if self.is_punct(i, b'(') {
                                i = self.skip_delim(i, b'(', b')');
                            }
                        }
                        "unsafe" | "async" | "default" | "extern" => i += 1,
                        "const" | "static" if !self.is_ident(i + 1, "fn") => {
                            i = self.skip_item(i + 1)
                        }
                        "const" | "static" => i += 1,
                        "use" | "type" | "macro" => {
                            if word == "use" {
                                self.use_item(i + 1);
                            }
                            i = self.skip_item(i + 1);
                        }
                        "mod" => {
                            // `mod name { … }` recurses; `mod name;` is a
                            // file module, parsed when its file is.
                            let mut j = i + 1;
                            while j < hi && !self.is_punct(j, b'{') && !self.is_punct(j, b';') {
                                j += 1;
                            }
                            if self.is_punct(j, b'{') {
                                let close = self.match_brace(j);
                                self.items(j + 1, close, owner);
                                i = close + 1;
                            } else {
                                i = j + 1;
                            }
                        }
                        "fn" => i = self.fn_item(i, owner),
                        "impl" if owner == Owner::Free => i = self.impl_item(i),
                        "trait" if owner == Owner::Free => i = self.trait_item(i),
                        _ => i = self.skip_item(i),
                    }
                }
                // A stray closer (we were called on an inner range) or an
                // item-level macro invocation's delimiters: just advance.
                _ => i += 1,
            }
        }
    }

    /// Index just past the delimiter group opened at `open` (which must
    /// hold `open_b`).
    fn skip_delim(&self, open: usize, open_b: u8, close_b: u8) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            if self.toks[i].is_punct(open_b) {
                depth += 1;
            } else if self.toks[i].is_punct(close_b) {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            i += 1;
        }
        i
    }

    /// Parses `use …;` starting just past the `use` keyword, flattening
    /// the tree into leaf paths.
    fn use_item(&mut self, start: usize) {
        let line = self.toks.get(start).map_or(1, |t| t.line);
        let mut prefix: Vec<String> = Vec::new();
        self.use_tree(start, &mut prefix, line);
    }

    /// Parses one use-tree level; returns the index just past it.
    fn use_tree(&mut self, mut i: usize, prefix: &mut Vec<String>, line: u32) -> usize {
        let depth_at_entry = prefix.len();
        loop {
            match self.toks.get(i).map(|t| t.kind) {
                Some(TokKind::Ident) | Some(TokKind::RawIdent) => {
                    prefix.push(self.text(i).to_string());
                    i += 1;
                }
                Some(TokKind::Punct(b'*')) => {
                    prefix.push("*".to_string());
                    i += 1;
                }
                Some(TokKind::Punct(b'{')) => {
                    // A brace group: each comma-separated subtree shares
                    // the current prefix.
                    i += 1;
                    loop {
                        match self.toks.get(i).map(|t| t.kind) {
                            None | Some(TokKind::Punct(b'}')) => {
                                i += 1;
                                break;
                            }
                            Some(TokKind::Punct(b',')) => i += 1,
                            _ => {
                                let before = prefix.len();
                                i = self.use_tree(i, prefix, line);
                                prefix.truncate(before);
                            }
                        }
                        if i > self.toks.len() {
                            break;
                        }
                    }
                    // A brace group ends this subtree; every leaf inside
                    // it was emitted by the recursive calls above.
                    return i;
                }
                Some(TokKind::Punct(b':')) if self.is_punct(i + 1, b':') => i += 2,
                _ => {
                    // `as alias`, `;`, `,`, `}` — emit the leaf built so far.
                    if self.is_ident(i, "as") {
                        i += 2; // skip `as alias`
                    }
                    if prefix.len() > depth_at_entry || depth_at_entry == 0 {
                        self.emit_use(prefix, line);
                    }
                    return i;
                }
            }
            // `as` directly after an ident run.
            if self.is_ident(i, "as") {
                i += 2;
                self.emit_use(prefix, line);
                return i;
            }
        }
    }

    fn emit_use(&mut self, prefix: &[String], line: u32) {
        if prefix.is_empty() {
            return;
        }
        self.out.uses.push(UseItem {
            segs: prefix.to_vec(),
            line,
        });
    }

    /// Parses a `fn` item whose `fn` keyword is at `i`.
    fn fn_item(&mut self, i: usize, owner: Owner) -> usize {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1) else {
            return i + 1;
        };
        if name_tok.kind != TokKind::Ident && name_tok.kind != TokKind::RawIdent {
            return i + 1;
        }
        let name = name_tok.text(self.src).to_string();
        // Scan for the body `{` (or `;` for a bodyless declaration) at
        // paren/bracket depth 0. Generic params and return types contain
        // neither braces nor semicolons, so angle depth can be ignored.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut body = None;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b')') | TokKind::Punct(b']') => depth -= 1,
                TokKind::Punct(b'{') if depth == 0 => {
                    let close = self.match_brace(j);
                    body = Some((j, close));
                    j = close + 1;
                    break;
                }
                TokKind::Punct(b';') if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let calls = body.map_or_else(Vec::new, |(o, c)| self.calls_in(o, c));
        let fn_id = self.out.fns.len();
        self.out.fns.push(FnItem {
            name,
            line,
            body,
            owner,
            in_test: self.in_test(line),
            calls,
        });
        match owner {
            Owner::Impl(idx) => self.out.impls[idx].fn_ids.push(fn_id),
            Owner::Trait(idx) => self.out.traits[idx].fn_ids.push(fn_id),
            Owner::Free => {}
        }
        j
    }

    /// Parses an `impl` block whose `impl` keyword is at `i`.
    fn impl_item(&mut self, i: usize) -> usize {
        let line = self.toks[i].line;
        let mut j = i + 1;
        // Generic parameter list directly after `impl`.
        if self.is_punct(j, b'<') {
            j = self.skip_angles(j);
        }
        // Walk to the body `{`, collecting the last angle-depth-0 path
        // ident before `for` (trait name) and before `{`/`where` (self
        // type).
        let mut angles = 0i32;
        let mut last_ident: Option<String> = None;
        let mut trait_name: Option<String> = None;
        let mut saw_for = false;
        while j < self.toks.len() {
            let t = &self.toks[j];
            match t.kind {
                TokKind::Punct(b'<') => angles += 1,
                // `->` in a `Fn(…) -> T` bound is not an angle close.
                TokKind::Punct(b'>') if !(j > 0 && self.toks[j - 1].is_punct(b'-')) => {
                    angles -= 1;
                }
                TokKind::Punct(b'{') if angles <= 0 => break,
                TokKind::Punct(b'(') | TokKind::Punct(b'[') => {
                    j = self.skip_delim(j, t.kind_byte(), t.close_byte());
                    continue;
                }
                TokKind::Ident if angles <= 0 => {
                    let w = t.text(self.src);
                    match w {
                        "for" => {
                            trait_name = last_ident.take();
                            saw_for = true;
                        }
                        "where" => {
                            // The rest up to `{` is bounds; stop collecting.
                            while j < self.toks.len() && !self.toks[j].is_punct(b'{') {
                                j += 1;
                            }
                            continue;
                        }
                        "dyn" | "as" => {}
                        _ => last_ident = Some(w.to_string()),
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let _ = saw_for;
        let self_ty = last_ident.unwrap_or_default();
        let impl_id = self.out.impls.len();
        self.out.impls.push(ImplItem {
            self_ty,
            trait_name,
            in_test: self.in_test(line),
            fn_ids: Vec::new(),
        });
        if self.is_punct(j, b'{') {
            let close = self.match_brace(j);
            self.items(j + 1, close, Owner::Impl(impl_id));
            close + 1
        } else {
            j
        }
    }

    /// Parses a `trait` declaration whose `trait` keyword is at `i`.
    fn trait_item(&mut self, i: usize) -> usize {
        let line = self.toks[i].line;
        let Some(name_tok) = self.toks.get(i + 1) else {
            return i + 1;
        };
        let name = name_tok.text(self.src).to_string();
        let mut j = i + 2;
        // Supertrait bounds and generics: scan to the body `{` with the
        // same arrow-aware angle tracking as impl headers.
        let mut angles = 0i32;
        while j < self.toks.len() {
            match self.toks[j].kind {
                TokKind::Punct(b'<') => angles += 1,
                TokKind::Punct(b'>') if !(j > 0 && self.toks[j - 1].is_punct(b'-')) => angles -= 1,
                TokKind::Punct(b'{') if angles <= 0 => break,
                TokKind::Punct(b'(') => {
                    j = self.skip_delim(j, b'(', b')');
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        let trait_id = self.out.traits.len();
        self.out.traits.push(TraitItem {
            name,
            in_test: self.in_test(line),
            fn_ids: Vec::new(),
        });
        if self.is_punct(j, b'{') {
            let close = self.match_brace(j);
            self.items(j + 1, close, Owner::Trait(trait_id));
            close + 1
        } else {
            j
        }
    }

    /// Index just past the `>` matching the `<` at `open`, arrow-aware.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < self.toks.len() {
            match self.toks[i].kind {
                TokKind::Punct(b'<') => depth += 1,
                TokKind::Punct(b'>') if !(i > 0 && self.toks[i - 1].is_punct(b'-')) => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// Extracts call sites from the body token range `(open, close)`.
    fn calls_in(&self, open: usize, close: usize) -> Vec<CallSite> {
        let mut out = Vec::new();
        let mut i = open;
        let end = close.min(self.toks.len());
        while i < end {
            let t = &self.toks[i];
            if t.is_punct(b'#') {
                i = self.skip_attr(i);
                continue;
            }
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            // `name!(…)` is a macro — the banned-construct scan covers the
            // interesting ones; skip so `vec` is not mistaken for a call.
            if self.is_punct(i + 1, b'!') {
                i += 1;
                continue;
            }
            // A call requires `(` directly after the name, or after a
            // turbofish `::<…>`.
            let after = if self.is_punct(i + 1, b':')
                && self.is_punct(i + 2, b':')
                && self.is_punct(i + 3, b'<')
            {
                self.skip_angles(i + 3)
            } else {
                i + 1
            };
            if !self.is_punct(after, b'(') {
                i += 1;
                continue;
            }
            let name = self.text(i).to_string();
            if NON_CALL_KEYWORDS.contains(&name.as_str()) {
                i += 1;
                continue;
            }
            // Method call: the name is preceded by `.`.
            if i > open && self.toks[i - 1].is_punct(b'.') {
                out.push(CallSite {
                    kind: CallKind::Method,
                    segs: vec![name],
                    tok: i,
                });
                i += 1;
                continue;
            }
            // Path call: walk back over `seg ::` pairs.
            let mut segs = vec![name];
            let mut k = i;
            while k >= 2 && self.toks[k - 1].is_punct(b':') && self.toks[k - 2].is_punct(b':') {
                if k >= 3 && self.toks[k - 3].kind == TokKind::Ident {
                    segs.insert(0, self.text(k - 3).to_string());
                    k -= 3;
                } else {
                    // `<T as Trait>::name(…)` or a turbofish tail — mark
                    // the qualifier unknown and stop.
                    segs.insert(0, String::new());
                    break;
                }
            }
            let kind = if segs.len() == 1 {
                CallKind::Bare
            } else {
                CallKind::Qualified
            };
            out.push(CallSite { kind, segs, tok: i });
            i += 1;
        }
        out
    }
}

impl Tok {
    fn kind_byte(&self) -> u8 {
        match self.kind {
            TokKind::Punct(b) => b,
            _ => 0,
        }
    }

    fn close_byte(&self) -> u8 {
        match self.kind {
            TokKind::Punct(b'(') => b')',
            TokKind::Punct(b'[') => b']',
            TokKind::Punct(b'{') => b'}',
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn ast(src: &str) -> FileAst {
        let lexed = lexer::lex(src);
        parse(src, &lexed, &[])
    }

    #[test]
    fn fns_impls_traits_and_owners() {
        let src = r#"
pub fn free_one(x: u32) -> u32 { helper(x) }

fn helper(x: u32) -> u32 { x }

pub struct Wrap<T>(T);

impl<T: Clone> Wrap<T> {
    pub fn inherent(&self) -> u32 { free_one(1) }
}

pub trait Plane {
    fn receive(&mut self, x: u32);
    fn reset_instance(&mut self) -> bool { true }
}

impl<T: Clone> Plane for Wrap<T> {
    fn receive(&mut self, x: u32) { self.inherent(); }
}
"#;
        let a = ast(src);
        let names: Vec<&str> = a.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "free_one",
                "helper",
                "inherent",
                "receive",
                "reset_instance",
                "receive"
            ]
        );
        assert_eq!(a.impls.len(), 2);
        assert_eq!(a.impls[0].self_ty, "Wrap");
        assert_eq!(a.impls[0].trait_name, None);
        assert_eq!(a.impls[1].self_ty, "Wrap");
        assert_eq!(a.impls[1].trait_name.as_deref(), Some("Plane"));
        assert_eq!(a.traits.len(), 1);
        assert_eq!(a.traits[0].name, "Plane");
        // The bodyless decl has no body; the default does.
        assert_eq!(a.fns[3].body, None);
        assert!(a.fns[4].body.is_some());
        // Owners.
        assert_eq!(a.fns[0].owner, Owner::Free);
        assert_eq!(a.fns[2].owner, Owner::Impl(0));
        assert_eq!(a.fns[3].owner, Owner::Trait(0));
        assert_eq!(a.fns[5].owner, Owner::Impl(1));
    }

    #[test]
    fn call_sites_bare_qualified_method() {
        let src = r#"
fn f(v: &mut Vec<u32>, s: S) {
    helper(1);
    module::free(2);
    Type::assoc(3);
    Self::me();
    v.push(4);
    s.receive::<u32>(5);
    let _ = vec![1];
    not_a_call;
    if cond(x) { }
}
"#;
        let a = ast(src);
        let calls: Vec<(CallKind, String)> = a.fns[0]
            .calls
            .iter()
            .map(|c| (c.kind, c.segs.join("::")))
            .collect();
        assert_eq!(
            calls,
            vec![
                (CallKind::Bare, "helper".into()),
                (CallKind::Qualified, "module::free".into()),
                (CallKind::Qualified, "Type::assoc".into()),
                (CallKind::Qualified, "Self::me".into()),
                (CallKind::Method, "push".into()),
                (CallKind::Method, "receive".into()),
                (CallKind::Bare, "cond".into()),
            ]
        );
    }

    #[test]
    fn use_trees_flatten() {
        let src = r#"
use std::sync::{Mutex, atomic::AtomicUsize};
use adn_graph::EdgeSet;
use adn_types::rng::SplitMix64 as Mix;
"#;
        let a = ast(src);
        let paths: Vec<String> = a.uses.iter().map(|u| u.segs.join("::")).collect();
        assert_eq!(
            paths,
            vec![
                "std::sync::Mutex",
                "std::sync::atomic::AtomicUsize",
                "adn_graph::EdgeSet",
                "adn_types::rng::SplitMix64",
            ]
        );
    }

    #[test]
    fn nested_modules_and_cfg_test_marking() {
        let src = "mod inner {\n    fn deep() {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let lexed = lexer::lex(src);
        // Lines 5..7 are the test mod (as the lint engine would span it).
        let a = parse(src, &lexed, &[(4, 7)]);
        let deep = a.fns.iter().find(|f| f.name == "deep").expect("deep");
        assert!(!deep.in_test);
        let t = a.fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
    }

    #[test]
    fn impl_headers_with_references_and_where_clauses() {
        let src = r#"
impl<'a> Rows for &'a Edge {
    fn get(&self) -> u32 { 0 }
}
impl<T> Pool<T> where T: Send {
    fn run(&self) {}
}
"#;
        let a = ast(src);
        assert_eq!(a.impls[0].trait_name.as_deref(), Some("Rows"));
        assert_eq!(a.impls[0].self_ty, "Edge");
        assert_eq!(a.impls[1].trait_name, None);
        assert_eq!(a.impls[1].self_ty, "Pool");
    }

    #[test]
    fn fn_body_with_match_arms_and_struct_literals() {
        let src = r#"
fn f(x: Opt) -> R {
    match x {
        Opt::A(v) => build(v),
        _ => R { field: 0 },
    }
}
fn build(v: u32) -> R { R { field: v } }
"#;
        let a = ast(src);
        assert_eq!(a.fns.len(), 2);
        let calls: Vec<&str> = a.fns[0]
            .calls
            .iter()
            .map(|c| c.segs.last().unwrap().as_str())
            .collect();
        // `Opt::A(v)` in a pattern does look like a call — harmless
        // over-approximation (resolves to nothing).
        assert!(calls.contains(&"build"));
    }
}
