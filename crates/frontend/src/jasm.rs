//! The `jasm` text language: a Jimple-like three-address assembly in
//! which all benchmark apps are authored.
//!
//! `jasm` sits at the same abstraction level as Soot's Jimple (which is
//! what the original FlowDroid analyzes): explicit locals, three-address
//! statements, fully-qualified invoke signatures and statement-level
//! control flow.
//!
//! # Syntax overview
//!
//! ```text
//! class com.example.Main extends android.app.Activity implements a.B {
//!   field user: com.example.User
//!   static field count: int
//!
//!   method onCreate(b: android.os.Bundle) -> void {
//!     let t: java.lang.String
//!     t = staticinvoke <android.telephony.TelephonyManager: java.lang.String getDeviceId()>()
//!     this.user = t
//!     virtualinvoke this.<android.app.Activity: void setContentView(int)>(@layout/main)
//!     if t == null goto end
//!     nop
//!   label end:
//!     return
//!   }
//!
//!   native method nat(x: int) -> int
//! }
//! ```
//!
//! Statements: `let`, place assignments (`x = y`, `x.f = y`,
//! `static C.f = y`, `a[i] = y` and the mirrored reads), `new C`,
//! `newarray T[n]`, binary/unary operators, `(T) x` casts,
//! `x instanceof T`, the four `…invoke` forms, `if a == b goto L` /
//! `if opaque goto L`, `goto L`, `label L:`, `return [x]`, `throw x`,
//! `nop`. Constants: integers, `"strings"`, `null`, and resource
//! references `@id/name` / `@layout/name` resolved against a
//! [`ResourceTable`].

use crate::layout::ResourceTable;
use flowdroid_ir::{
    BinOp, ClassId, CmpOp, Constant, FxHashMap, FxHashSet, InvokeKind, Label, Local,
    MethodBuilder, Operand, Place, Program, Rvalue, Type, UnOp,
};
use std::fmt;

/// A parse or lowering error with source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description of the problem.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "jasm error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses `src` and declares all contained classes into `program`.
///
/// `resources` resolves `@id/...` and `@layout/...` references; pass an
/// empty table for non-Android code.
///
/// Returns the ids of the declared classes.
///
/// # Errors
///
/// Returns [`ParseError`] on syntax errors, unknown locals/labels,
/// unresolvable resource references, or a class, field or method
/// declared twice (a class already in `program` counts).
pub fn parse_jasm(
    program: &mut Program,
    resources: &ResourceTable,
    src: &str,
) -> Result<Vec<ClassId>, ParseError> {
    let tokens = lex(src)?;
    let ast = Parser { tokens: &tokens, pos: 0 }.parse_file()?;
    lower(program, resources, &ast)
}

// ===================== Lexer =====================

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    /// `@kind/name` resource reference.
    Res(String, String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
    Dot,
    Arrow,
    Assign,
    EqEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Amp,
    Pipe,
    Caret,
    Shl,
    Shr,
}

#[derive(Debug, Clone, PartialEq)]
struct SpannedTok {
    tok: Tok,
    line: u32,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let err = |msg: &str, line: u32| ParseError { message: msg.to_owned(), line };
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= b.len() {
                        return Err(err("unterminated string literal", line));
                    }
                    match b[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < b.len() => {
                            let e = b[i + 1];
                            s.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'\\' => '\\',
                                b'"' => '"',
                                other => other as char,
                            });
                            i += 2;
                        }
                        b'\n' => return Err(err("newline in string literal", line)),
                        other => {
                            s.push(other as char);
                            i += 1;
                        }
                    }
                }
                out.push(SpannedTok { tok: Tok::Str(s), line });
            }
            b'@' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let kind = String::from_utf8_lossy(&b[start..i]).into_owned();
                if i >= b.len() || b[i] != b'/' {
                    return Err(err("expected '/' in resource reference", line));
                }
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let name = String::from_utf8_lossy(&b[start..i]).into_owned();
                if kind.is_empty() || name.is_empty() {
                    return Err(err("malformed resource reference", line));
                }
                out.push(SpannedTok { tok: Tok::Res(kind, name), line });
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                let v = if let Some(hex) = text.strip_prefix("0x") {
                    i64::from_str_radix(&hex.replace('_', ""), 16)
                } else {
                    text.replace('_', "").parse()
                };
                match v {
                    Ok(v) => out.push(SpannedTok { tok: Tok::Int(v), line }),
                    Err(_) => return Err(err(&format!("bad integer literal `{text}`"), line)),
                }
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'$' => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'$')
                {
                    i += 1;
                }
                let text = String::from_utf8_lossy(&b[start..i]).into_owned();
                out.push(SpannedTok { tok: Tok::Ident(text), line });
            }
            _ => {
                let two = if i + 1 < b.len() { &b[i..i + 2] } else { &b[i..i + 1] };
                let (tok, len) = match two {
                    b"->" => (Tok::Arrow, 2),
                    b"==" => (Tok::EqEq, 2),
                    b"!=" => (Tok::Ne, 2),
                    b"<=" => (Tok::Le, 2),
                    b">=" => (Tok::Ge, 2),
                    b"<<" => (Tok::Shl, 2),
                    b">>" => (Tok::Shr, 2),
                    _ => match c {
                        b'{' => (Tok::LBrace, 1),
                        b'}' => (Tok::RBrace, 1),
                        b'(' => (Tok::LParen, 1),
                        b')' => (Tok::RParen, 1),
                        b'[' => (Tok::LBracket, 1),
                        b']' => (Tok::RBracket, 1),
                        b':' => (Tok::Colon, 1),
                        b',' => (Tok::Comma, 1),
                        b'.' => (Tok::Dot, 1),
                        b'=' => (Tok::Assign, 1),
                        b'<' => (Tok::Lt, 1),
                        b'>' => (Tok::Gt, 1),
                        b'+' => (Tok::Plus, 1),
                        b'-' => (Tok::Minus, 1),
                        b'*' => (Tok::Star, 1),
                        b'/' => (Tok::Slash, 1),
                        b'%' => (Tok::Percent, 1),
                        b'&' => (Tok::Amp, 1),
                        b'|' => (Tok::Pipe, 1),
                        b'^' => (Tok::Caret, 1),
                        other => {
                            return Err(err(
                                &format!("unexpected character `{}`", other as char),
                                line,
                            ))
                        }
                    },
                };
                out.push(SpannedTok { tok, line });
                i += len;
            }
        }
    }
    Ok(out)
}

// ===================== AST =====================

#[derive(Debug, Clone, PartialEq)]
enum AstType {
    Void,
    Boolean,
    Byte,
    Char,
    Short,
    Int,
    Long,
    Float,
    Double,
    Named(String),
    Array(Box<AstType>),
}

#[derive(Debug)]
struct AstFile {
    classes: Vec<AstClass>,
}

#[derive(Debug)]
struct AstClass {
    name: String,
    line: u32,
    is_interface: bool,
    is_abstract: bool,
    extends: Option<String>,
    implements: Vec<String>,
    fields: Vec<AstField>,
    methods: Vec<AstMethod>,
}

#[derive(Debug)]
struct AstField {
    name: String,
    ty: AstType,
    is_static: bool,
}

#[derive(Debug)]
struct AstMethod {
    name: String,
    params: Vec<(String, AstType)>,
    ret: AstType,
    is_static: bool,
    is_native: bool,
    is_abstract: bool,
    body: Option<Vec<AstStmt>>,
}

impl AstMethod {
    /// Same name, parameter types and return type: the two would map to
    /// one method subsignature.
    fn same_subsig(&self, other: &AstMethod) -> bool {
        self.name == other.name
            && self.ret == other.ret
            && self.params.iter().map(|p| &p.1).eq(other.params.iter().map(|p| &p.1))
    }
}

#[derive(Debug, Clone)]
struct AstSig {
    class: String,
    ret: AstType,
    name: String,
    params: Vec<AstType>,
}

#[derive(Debug, Clone)]
enum AstOperand {
    Local(String),
    Int(i64),
    Str(String),
    Null,
    Res(String, String),
}

#[derive(Debug, Clone)]
enum AstPlace {
    Local(String),
    Field(String, String),
    StaticField(String, String),
    ArrayElem(String, AstOperand),
}

#[derive(Debug, Clone)]
enum AstRhs {
    Operand(AstOperand),
    Read(AstPlace),
    New(String),
    NewArray(AstType, AstOperand),
    Bin(BinOp, AstOperand, AstOperand),
    Un(UnOp, AstOperand),
    Cast(AstType, AstOperand),
    InstanceOf(AstOperand, AstType),
}

#[derive(Debug, Clone)]
enum AstStmt {
    Let { name: String, ty: AstType, line: u32 },
    Assign { lhs: AstPlace, rhs: AstRhs, line: u32 },
    Invoke {
        result: Option<String>,
        kind: InvokeKind,
        base: Option<String>,
        sig: AstSig,
        args: Vec<AstOperand>,
        line: u32,
    },
    If { cond: Option<(CmpOp, AstOperand, AstOperand)>, target: String, line: u32 },
    Goto { target: String, line: u32 },
    LabelDecl { name: String },
    Return { value: Option<AstOperand>, line: u32 },
    Throw { value: AstOperand, line: u32 },
    Nop { line: u32 },
}

// ===================== Parser =====================

struct Parser<'t> {
    tokens: &'t [SpannedTok],
    pos: usize,
}

impl Parser<'_> {
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError { message: msg.into(), line: self.line() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    /// Dotted name: `a.b.c`.
    fn dotted(&mut self, what: &str) -> Result<String, ParseError> {
        let mut s = self.ident(what)?;
        while self.peek() == Some(&Tok::Dot) {
            // Only consume the dot if an identifier follows.
            if matches!(self.peek2(), Some(Tok::Ident(_))) {
                self.pos += 1;
                s.push('.');
                s.push_str(&self.ident("name segment")?);
            } else {
                break;
            }
        }
        Ok(s)
    }

    fn parse_type(&mut self) -> Result<AstType, ParseError> {
        let head = match self.peek() {
            Some(Tok::Ident(s)) => s.clone(),
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        let base = match head.as_str() {
            "void" => AstType::Void,
            "boolean" => AstType::Boolean,
            "byte" => AstType::Byte,
            "char" => AstType::Char,
            "short" => AstType::Short,
            "int" => AstType::Int,
            "long" => AstType::Long,
            "float" => AstType::Float,
            "double" => AstType::Double,
            _ => AstType::Named(self.dotted("type name")?),
        };
        if !matches!(base, AstType::Named(_)) {
            self.pos += 1;
        }
        let mut t = base;
        while self.peek() == Some(&Tok::LBracket) && self.peek2() == Some(&Tok::RBracket) {
            self.pos += 2;
            t = AstType::Array(Box::new(t));
        }
        Ok(t)
    }

    // (array suffixes handled above)

    fn parse_file(mut self) -> Result<AstFile, ParseError> {
        let mut classes = Vec::new();
        while self.peek().is_some() {
            classes.push(self.parse_class()?);
        }
        Ok(AstFile { classes })
    }

    fn parse_class(&mut self) -> Result<AstClass, ParseError> {
        let line = self.line();
        let is_abstract = self.eat_kw("abstract");
        let is_interface = if self.eat_kw("interface") {
            true
        } else {
            self.expect_kw("class")?;
            false
        };
        let name = self.dotted("class name")?;
        let mut extends = None;
        let mut implements = Vec::new();
        if self.eat_kw("extends") {
            extends = Some(self.dotted("superclass name")?);
            // Interfaces may extend several.
            while is_interface && self.eat(&Tok::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        if self.eat_kw("implements") {
            implements.push(self.dotted("interface name")?);
            while self.eat(&Tok::Comma) {
                implements.push(self.dotted("interface name")?);
            }
        }
        self.expect(&Tok::LBrace, "`{`")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated class body"));
            }
            let member_line = self.line();
            // Member modifiers may appear in any order.
            let (mut is_static, mut is_native, mut is_abs) = (false, false, false);
            loop {
                if self.eat_kw("static") {
                    is_static = true;
                } else if self.eat_kw("native") {
                    is_native = true;
                } else if self.eat_kw("abstract") {
                    is_abs = true;
                } else {
                    break;
                }
            }
            if self.eat_kw("field") {
                if is_native || is_abs {
                    return Err(self.err("fields cannot be native or abstract"));
                }
                let fname = self.ident("field name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let ty = self.parse_type()?;
                if fields.iter().any(|f: &AstField| f.name == fname) {
                    return Err(ParseError {
                        message: format!("field `{fname}` declared twice on class `{name}`"),
                        line: member_line,
                    });
                }
                fields.push(AstField { name: fname, ty, is_static });
            } else if self.eat_kw("method") {
                let m = self.parse_method(is_static, is_native, is_abs || is_interface)?;
                if methods.iter().any(|o: &AstMethod| o.same_subsig(&m)) {
                    return Err(ParseError {
                        message: format!("method `{}` declared twice on class `{name}`", m.name),
                        line: member_line,
                    });
                }
                methods.push(m);
            } else {
                return Err(self.err(format!(
                    "expected `field` or `method`, found {:?}",
                    self.peek()
                )));
            }
        }
        Ok(AstClass { name, line, is_interface, is_abstract, extends, implements, fields, methods })
    }

    fn parse_method(
        &mut self,
        is_static: bool,
        is_native: bool,
        is_abstract: bool,
    ) -> Result<AstMethod, ParseError> {
        let name = self.method_name()?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let pname = self.ident("parameter name")?;
                self.expect(&Tok::Colon, "`:`")?;
                let ty = self.parse_type()?;
                params.push((pname, ty));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "`,`")?;
            }
        }
        self.expect(&Tok::Arrow, "`->`")?;
        let ret = self.parse_type()?;
        let body = if is_native || is_abstract {
            None
        } else {
            self.expect(&Tok::LBrace, "`{`")?;
            let mut stmts = Vec::new();
            while !self.eat(&Tok::RBrace) {
                if self.peek().is_none() {
                    return Err(self.err("unterminated method body"));
                }
                stmts.push(self.parse_stmt()?);
            }
            Some(stmts)
        };
        Ok(AstMethod { name, params, ret, is_static, is_native, is_abstract, body })
    }

    /// A method name, possibly `<init>` or `<clinit>`.
    fn method_name(&mut self) -> Result<String, ParseError> {
        if self.eat(&Tok::Lt) {
            let n = self.ident("constructor name")?;
            self.expect(&Tok::Gt, "`>`")?;
            Ok(format!("<{n}>"))
        } else {
            self.ident("method name")
        }
    }

    fn parse_operand(&mut self) -> Result<AstOperand, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) if s == "null" => {
                self.pos += 1;
                Ok(AstOperand::Null)
            }
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(AstOperand::Local(s))
            }
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(AstOperand::Int(v))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                match self.bump() {
                    Some(Tok::Int(v)) => Ok(AstOperand::Int(-v)),
                    other => Err(self.err(format!("expected integer after `-`, found {other:?}"))),
                }
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(AstOperand::Str(s))
            }
            Some(Tok::Res(k, n)) => {
                self.pos += 1;
                Ok(AstOperand::Res(k, n))
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    /// `<Class: RetType name(T1,T2)>`
    fn parse_sig(&mut self) -> Result<AstSig, ParseError> {
        self.expect(&Tok::Lt, "`<` starting a signature")?;
        let class = self.dotted("class name")?;
        self.expect(&Tok::Colon, "`:`")?;
        let ret = self.parse_type()?;
        let name = self.method_name()?;
        self.expect(&Tok::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.parse_type()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "`,`")?;
            }
        }
        self.expect(&Tok::Gt, "`>` ending the signature")?;
        Ok(AstSig { class, ret, name, params })
    }

    fn parse_args(&mut self) -> Result<Vec<AstOperand>, ParseError> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.parse_operand()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma, "`,`")?;
            }
        }
        Ok(args)
    }

    fn invoke_kind(kw: &str) -> Option<InvokeKind> {
        match kw {
            "virtualinvoke" => Some(InvokeKind::Virtual),
            "interfaceinvoke" => Some(InvokeKind::Interface),
            "specialinvoke" => Some(InvokeKind::Special),
            "staticinvoke" => Some(InvokeKind::Static),
            _ => None,
        }
    }

    /// Parses `kindinvoke [base.]<sig>(args)`.
    fn parse_invoke(
        &mut self,
        result: Option<String>,
        kind: InvokeKind,
        line: u32,
    ) -> Result<AstStmt, ParseError> {
        let base = if kind == InvokeKind::Static {
            None
        } else {
            let b = self.ident("receiver local")?;
            self.expect(&Tok::Dot, "`.`")?;
            Some(b)
        };
        let sig = self.parse_sig()?;
        let args = self.parse_args()?;
        if sig.params.len() != args.len() {
            return Err(self.err(format!(
                "signature has {} parameters but {} arguments given",
                sig.params.len(),
                args.len()
            )));
        }
        Ok(AstStmt::Invoke { result, kind, base, sig, args, line })
    }

    fn cmp_of(t: &Tok) -> Option<CmpOp> {
        match t {
            Tok::EqEq => Some(CmpOp::Eq),
            Tok::Ne => Some(CmpOp::Ne),
            Tok::Lt => Some(CmpOp::Lt),
            Tok::Le => Some(CmpOp::Le),
            Tok::Gt => Some(CmpOp::Gt),
            Tok::Ge => Some(CmpOp::Ge),
            _ => None,
        }
    }

    fn binop_of(t: &Tok) -> Option<BinOp> {
        match t {
            Tok::Plus => Some(BinOp::Add),
            Tok::Minus => Some(BinOp::Sub),
            Tok::Star => Some(BinOp::Mul),
            Tok::Slash => Some(BinOp::Div),
            Tok::Percent => Some(BinOp::Rem),
            Tok::Amp => Some(BinOp::And),
            Tok::Pipe => Some(BinOp::Or),
            Tok::Caret => Some(BinOp::Xor),
            Tok::Shl => Some(BinOp::Shl),
            Tok::Shr => Some(BinOp::Shr),
            _ => None,
        }
    }

    fn parse_stmt(&mut self) -> Result<AstStmt, ParseError> {
        let line = self.line();
        // Keyword statements.
        if self.eat_kw("let") {
            let name = self.ident("local name")?;
            self.expect(&Tok::Colon, "`:`")?;
            let ty = self.parse_type()?;
            return Ok(AstStmt::Let { name, ty, line });
        }
        if self.eat_kw("label") {
            let name = self.ident("label name")?;
            self.expect(&Tok::Colon, "`:`")?;
            let _ = line;
            return Ok(AstStmt::LabelDecl { name });
        }
        if self.eat_kw("goto") {
            let target = self.ident("label name")?;
            return Ok(AstStmt::Goto { target, line });
        }
        if self.eat_kw("if") {
            if self.eat_kw("opaque") {
                self.expect_kw("goto")?;
                let target = self.ident("label name")?;
                return Ok(AstStmt::If { cond: None, target, line });
            }
            let a = self.parse_operand()?;
            let op = match self.bump() {
                Some(t) => Self::cmp_of(&t)
                    .ok_or_else(|| self.err(format!("expected comparison operator, found {t:?}")))?,
                None => return Err(self.err("unexpected end of input in `if`")),
            };
            let b = self.parse_operand()?;
            self.expect_kw("goto")?;
            let target = self.ident("label name")?;
            return Ok(AstStmt::If { cond: Some((op, a, b)), target, line });
        }
        if self.eat_kw("return") {
            // A value follows unless the next token closes the body or
            // starts another statement... `return` is always last on its
            // logical line; we detect a value by operand-start tokens,
            // except identifiers that begin a new statement cannot be
            // distinguished — so `return` with a value is required to be
            // written as `return x` and void returns as plain `return`
            // followed by a non-operand token or statement keyword.
            let value = match self.peek() {
                Some(Tok::Int(_) | Tok::Str(_) | Tok::Res(..) | Tok::Minus) => {
                    Some(self.parse_operand()?)
                }
                Some(Tok::Ident(s)) if !is_stmt_keyword(s) => Some(self.parse_operand()?),
                _ => None,
            };
            return Ok(AstStmt::Return { value, line });
        }
        if self.eat_kw("throw") {
            let value = self.parse_operand()?;
            return Ok(AstStmt::Throw { value, line });
        }
        if self.eat_kw("nop") {
            return Ok(AstStmt::Nop { line });
        }
        // Standalone invokes.
        if let Some(Tok::Ident(kw)) = self.peek() {
            if let Some(kind) = Self::invoke_kind(kw) {
                self.pos += 1;
                return self.parse_invoke(None, kind, line);
            }
        }
        // `static C.f = rhs` (static field store).
        if self.eat_kw("static") {
            let dotted = self.dotted("static field reference")?;
            let (class, field) = split_field_ref(&dotted)
                .ok_or_else(|| self.err("static field reference needs `Class.field`"))?;
            self.expect(&Tok::Assign, "`=`")?;
            let rhs = self.parse_rhs()?;
            return Ok(AstStmt::Assign {
                lhs: AstPlace::StaticField(class, field),
                rhs,
                line,
            });
        }
        // Assignments starting with a local.
        let name = self.ident("statement")?;
        let lhs = if self.eat(&Tok::Dot) {
            let field = self.ident("field name")?;
            AstPlace::Field(name, field)
        } else if self.eat(&Tok::LBracket) {
            let idx = self.parse_operand()?;
            self.expect(&Tok::RBracket, "`]`")?;
            AstPlace::ArrayElem(name, idx)
        } else {
            AstPlace::Local(name)
        };
        self.expect(&Tok::Assign, "`=`")?;
        // Invoke with result?
        if let Some(Tok::Ident(kw)) = self.peek() {
            if let Some(kind) = Self::invoke_kind(kw) {
                let result = match &lhs {
                    AstPlace::Local(l) => l.clone(),
                    _ => return Err(self.err("invoke results must be assigned to a local")),
                };
                self.pos += 1;
                return self.parse_invoke(Some(result), kind, line);
            }
        }
        let rhs = self.parse_rhs()?;
        Ok(AstStmt::Assign { lhs, rhs, line })
    }

    fn parse_rhs(&mut self) -> Result<AstRhs, ParseError> {
        // Cast: `(T) x`.
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            let ty = self.parse_type()?;
            self.expect(&Tok::RParen, "`)`")?;
            let v = self.parse_operand()?;
            return Ok(AstRhs::Cast(ty, v));
        }
        if self.eat_kw("new") {
            let class = self.dotted("class name")?;
            return Ok(AstRhs::New(class));
        }
        if self.eat_kw("newarray") {
            let ty = self.parse_type()?;
            self.expect(&Tok::LBracket, "`[`")?;
            let n = self.parse_operand()?;
            self.expect(&Tok::RBracket, "`]`")?;
            return Ok(AstRhs::NewArray(ty, n));
        }
        if self.eat_kw("neg") {
            return Ok(AstRhs::Un(UnOp::Neg, self.parse_operand()?));
        }
        if self.eat_kw("lengthof") {
            return Ok(AstRhs::Un(UnOp::Len, self.parse_operand()?));
        }
        if self.eat_kw("static") {
            let dotted = self.dotted("static field reference")?;
            let (class, field) = split_field_ref(&dotted)
                .ok_or_else(|| self.err("static field reference needs `Class.field`"))?;
            return Ok(AstRhs::Read(AstPlace::StaticField(class, field)));
        }
        // Operand-led: move, field read, array read, binop, instanceof.
        let first = self.parse_operand()?;
        if let AstOperand::Local(base) = &first {
            if self.eat(&Tok::Dot) {
                let field = self.ident("field name")?;
                return Ok(AstRhs::Read(AstPlace::Field(base.clone(), field)));
            }
            if self.peek() == Some(&Tok::LBracket) && self.peek2() != Some(&Tok::RBracket) {
                self.pos += 1;
                let idx = self.parse_operand()?;
                self.expect(&Tok::RBracket, "`]`")?;
                return Ok(AstRhs::Read(AstPlace::ArrayElem(base.clone(), idx)));
            }
        }
        if self.eat_kw("instanceof") {
            let ty = self.parse_type()?;
            return Ok(AstRhs::InstanceOf(first, ty));
        }
        if let Some(t) = self.peek() {
            if let Some(op) = Self::binop_of(t) {
                self.pos += 1;
                let second = self.parse_operand()?;
                return Ok(AstRhs::Bin(op, first, second));
            }
            if t == &Tok::Ident("cmp".to_owned()) {
                self.pos += 1;
                let second = self.parse_operand()?;
                return Ok(AstRhs::Bin(BinOp::Cmp, first, second));
            }
        }
        Ok(AstRhs::Operand(first))
    }
}

fn is_stmt_keyword(s: &str) -> bool {
    matches!(
        s,
        "let"
            | "label"
            | "goto"
            | "if"
            | "return"
            | "throw"
            | "nop"
            | "static"
            | "virtualinvoke"
            | "interfaceinvoke"
            | "specialinvoke"
            | "staticinvoke"
    )
}

fn split_field_ref(dotted: &str) -> Option<(String, String)> {
    let idx = dotted.rfind('.')?;
    Some((dotted[..idx].to_owned(), dotted[idx + 1..].to_owned()))
}

// ===================== Lowering =====================

fn lower(
    program: &mut Program,
    resources: &ResourceTable,
    ast: &AstFile,
) -> Result<Vec<ClassId>, ParseError> {
    // A class declared twice — in this file, or already in the program
    // (a platform class included) — is an error, caught before anything
    // is declared.
    for (i, c) in ast.classes.iter().enumerate() {
        let declared =
            program.find_class(&c.name).is_some_and(|id| program.class(id).is_declared());
        if declared || ast.classes[..i].iter().any(|o| o.name == c.name) {
            let message = format!("class `{}` declared twice", c.name);
            return Err(ParseError { message, line: c.line });
        }
    }
    // Pass 1: declare classes, fields and method signatures.
    let mut class_ids = Vec::new();
    for c in &ast.classes {
        let id = if c.is_interface {
            let extends: Vec<&str> = c.implements.iter().map(String::as_str).collect();
            let mut ext = extends;
            if let Some(e) = &c.extends {
                ext.insert(0, e.as_str());
            }
            program.declare_interface(&c.name, &ext)
        } else {
            let extends = c.extends.as_deref().or(Some("java.lang.Object"));
            let impls: Vec<&str> = c.implements.iter().map(String::as_str).collect();
            program.declare_class(&c.name, extends, &impls)
        };
        if c.is_abstract {
            program.set_abstract(id, true);
        }
        class_ids.push(id);
    }
    let mut method_ids = Vec::new();
    for (c, &cid) in ast.classes.iter().zip(&class_ids) {
        for f in &c.fields {
            let ty = lower_type(program, &f.ty);
            program.declare_field(cid, &f.name, ty, f.is_static);
        }
        let mut per_class = Vec::new();
        for m in &c.methods {
            let params: Vec<Type> = m.params.iter().map(|(_, t)| lower_type(program, t)).collect();
            let ret = lower_type(program, &m.ret);
            let mid = program.declare_method(cid, &m.name, params, ret, m.is_static);
            if m.is_native {
                program.set_native(mid, true);
            }
            if m.is_abstract {
                program.set_method_abstract(mid, true);
            }
            per_class.push(mid);
        }
        method_ids.push(per_class);
    }
    // Pass 2: lower bodies.
    for (ci, c) in ast.classes.iter().enumerate() {
        for (mi, m) in c.methods.iter().enumerate() {
            let Some(body) = &m.body else { continue };
            let mid = method_ids[ci][mi];
            lower_body(program, resources, mid, m, body)?;
        }
    }
    Ok(class_ids)
}

fn lower_type(program: &mut Program, t: &AstType) -> Type {
    match t {
        AstType::Void => Type::Void,
        AstType::Boolean => Type::Boolean,
        AstType::Byte => Type::Byte,
        AstType::Char => Type::Char,
        AstType::Short => Type::Short,
        AstType::Int => Type::Int,
        AstType::Long => Type::Long,
        AstType::Float => Type::Float,
        AstType::Double => Type::Double,
        AstType::Named(n) => program.ref_type(n),
        AstType::Array(e) => lower_type(program, e).array_of(),
    }
}

struct BodyCx<'a> {
    locals: FxHashMap<String, (Local, Type)>,
    labels: FxHashMap<String, Label>,
    bound_labels: FxHashSet<String>,
    resources: &'a ResourceTable,
}

impl BodyCx<'_> {
    fn local(&self, name: &str, line: u32) -> Result<(Local, Type), ParseError> {
        self.locals
            .get(name)
            .cloned()
            .ok_or_else(|| ParseError { message: format!("unknown local `{name}`"), line })
    }

    fn label(&mut self, b: &mut MethodBuilder<'_>, name: &str) -> Label {
        if let Some(&l) = self.labels.get(name) {
            l
        } else {
            let l = b.fresh_label();
            self.labels.insert(name.to_owned(), l);
            l
        }
    }

    fn operand(&self, program: &mut Program, o: &AstOperand, line: u32) -> Result<Operand, ParseError> {
        Ok(match o {
            AstOperand::Local(n) => Operand::Local(self.local(n, line)?.0),
            AstOperand::Int(v) => Operand::Const(Constant::Int(*v)),
            AstOperand::Str(s) => Operand::Const(Constant::Str(program.intern(s))),
            AstOperand::Null => Operand::Const(Constant::Null),
            AstOperand::Res(kind, name) => {
                let sym = format!("@{kind}/{name}");
                let id = self.resources.resolve(&sym).ok_or_else(|| ParseError {
                    message: format!("unresolved resource reference `{sym}`"),
                    line,
                })?;
                Operand::Const(Constant::Int(id))
            }
        })
    }
}

/// Resolves `base.field` against the static type of `base`, declaring
/// the field on phantom classes when necessary (framework stubs).
fn resolve_instance_field(
    program: &mut Program,
    base_ty: &Type,
    field: &str,
    line: u32,
) -> Result<flowdroid_ir::FieldId, ParseError> {
    let Some(class) = base_ty.as_class() else {
        return Err(ParseError {
            message: format!("field access `.{field}` on non-class type"),
            line,
        });
    };
    let sym = program.intern(field);
    if let Some(f) = program.resolve_field(class, sym) {
        return Ok(f);
    }
    if !program.class(class).is_declared() {
        let obj = program.ref_type("java.lang.Object");
        return Ok(program.declare_field(class, field, obj, false));
    }
    Err(ParseError {
        message: format!(
            "unknown field `{}` on class {}",
            field,
            program.class_name(class)
        ),
        line,
    })
}

fn resolve_static_field(
    program: &mut Program,
    class: &str,
    field: &str,
    line: u32,
) -> Result<flowdroid_ir::FieldId, ParseError> {
    let cid = program.class_id(class);
    let sym = program.intern(field);
    if let Some(f) = program.resolve_field(cid, sym) {
        return Ok(f);
    }
    if !program.class(cid).is_declared() {
        let obj = program.ref_type("java.lang.Object");
        return Ok(program.declare_field(cid, field, obj, true));
    }
    Err(ParseError {
        message: format!("unknown static field `{field}` on class {class}"),
        line,
    })
}

fn lower_place(
    b: &mut MethodBuilder<'_>,
    cx: &BodyCx<'_>,
    p: &AstPlace,
    line: u32,
) -> Result<Place, ParseError> {
    Ok(match p {
        AstPlace::Local(n) => Place::Local(cx.local(n, line)?.0),
        AstPlace::Field(base, field) => {
            let (l, ty) = cx.local(base, line)?;
            let f = resolve_instance_field(b.program(), &ty, field, line)?;
            Place::InstanceField(l, f)
        }
        AstPlace::StaticField(class, field) => {
            let f = resolve_static_field(b.program(), class, field, line)?;
            Place::StaticField(f)
        }
        AstPlace::ArrayElem(base, idx) => {
            let (l, _) = cx.local(base, line)?;
            let i = cx.operand(b.program(), idx, line)?;
            Place::ArrayElem(l, i)
        }
    })
}

fn lower_body(
    program: &mut Program,
    resources: &ResourceTable,
    mid: flowdroid_ir::MethodId,
    m: &AstMethod,
    stmts: &[AstStmt],
) -> Result<(), ParseError> {
    let mut b = MethodBuilder::for_method(program, mid);
    let mut cx = BodyCx {
        locals: FxHashMap::default(),
        labels: FxHashMap::default(),
        bound_labels: FxHashSet::default(),
        resources,
    };
    // Pre-register `this` and parameters.
    {
        let method = b.program().method(mid);
        let is_static = method.is_static();
        let class = method.class();
        if !is_static {
            cx.locals.insert("this".to_owned(), (Local(0), Type::Ref(class)));
        }
    }
    for (i, (pname, pty)) in m.params.iter().enumerate() {
        let ty = lower_type(b.program(), pty);
        let l = b.param(i);
        b.rename_local(l, pname);
        cx.locals.insert(pname.clone(), (l, ty));
    }
    // Pre-scan `let` declarations so locals can be referenced before
    // their textual declaration (labels too).
    for s in stmts {
        if let AstStmt::Let { name, ty, line } = s {
            if cx.locals.contains_key(name) {
                return Err(ParseError {
                    message: format!("local `{name}` declared twice"),
                    line: *line,
                });
            }
            let ty = lower_type(b.program(), ty);
            let l = b.local(name, ty.clone());
            cx.locals.insert(name.clone(), (l, ty));
        }
    }
    for s in stmts {
        match s {
            AstStmt::Let { .. } => {}
            AstStmt::LabelDecl { name } => {
                if !cx.bound_labels.insert(name.clone()) {
                    return Err(ParseError {
                        message: format!("label `{name}` declared twice"),
                        line: 0,
                    });
                }
                let l = cx.label(&mut b, name);
                b.bind(l);
            }
            AstStmt::Goto { target, line } => {
                b.line(*line);
                let l = cx.label(&mut b, target);
                b.goto(l);
            }
            AstStmt::If { cond, target, line } => {
                b.line(*line);
                let l = cx.label(&mut b, target);
                match cond {
                    None => {
                        b.if_opaque(l);
                    }
                    Some((op, x, y)) => {
                        let x = cx.operand(b.program(), x, *line)?;
                        let y = cx.operand(b.program(), y, *line)?;
                        b.if_cmp(*op, x, y, l);
                    }
                }
            }
            AstStmt::Return { value, line } => {
                b.line(*line);
                let v = match value {
                    Some(o) => Some(cx.operand(b.program(), o, *line)?),
                    None => None,
                };
                b.ret(v);
            }
            AstStmt::Throw { value, line } => {
                b.line(*line);
                let v = cx.operand(b.program(), value, *line)?;
                b.throw(v);
            }
            AstStmt::Nop { line } => {
                b.line(*line);
                b.nop();
            }
            AstStmt::Assign { lhs, rhs, line } => {
                b.line(*line);
                let rv = match rhs {
                    AstRhs::Operand(o) => match o {
                        AstOperand::Local(n) => {
                            Rvalue::Read(Place::Local(cx.local(n, *line)?.0))
                        }
                        other => {
                            let op = cx.operand(b.program(), other, *line)?;
                            match op {
                                Operand::Const(c) => Rvalue::Const(c),
                                Operand::Local(l) => Rvalue::Read(Place::Local(l)),
                            }
                        }
                    },
                    AstRhs::Read(p) => Rvalue::Read(lower_place(&mut b, &cx, p, *line)?),
                    AstRhs::New(cname) => {
                        let cid = b.program().class_id(cname);
                        Rvalue::New(cid)
                    }
                    AstRhs::NewArray(t, n) => {
                        let ty = lower_type(b.program(), t);
                        let n = cx.operand(b.program(), n, *line)?;
                        Rvalue::NewArray(ty, n)
                    }
                    AstRhs::Bin(op, x, y) => {
                        let x = cx.operand(b.program(), x, *line)?;
                        let y = cx.operand(b.program(), y, *line)?;
                        Rvalue::BinOp(*op, x, y)
                    }
                    AstRhs::Un(op, x) => {
                        let x = cx.operand(b.program(), x, *line)?;
                        Rvalue::UnOp(*op, x)
                    }
                    AstRhs::Cast(t, x) => {
                        let ty = lower_type(b.program(), t);
                        let x = cx.operand(b.program(), x, *line)?;
                        Rvalue::Cast(ty, x)
                    }
                    AstRhs::InstanceOf(x, t) => {
                        let ty = lower_type(b.program(), t);
                        let x = cx.operand(b.program(), x, *line)?;
                        Rvalue::InstanceOf(x, ty)
                    }
                };
                let place = lower_place(&mut b, &cx, lhs, *line)?;
                b.assign(place, rv);
            }
            AstStmt::Invoke { result, kind, base, sig, args, line } => {
                b.line(*line);
                let result = match result {
                    Some(r) => Some(cx.local(r, *line)?.0),
                    None => None,
                };
                let base = match base {
                    Some(bl) => Some(cx.local(bl, *line)?.0),
                    None => None,
                };
                let params: Vec<Type> =
                    sig.params.iter().map(|t| lower_type(b.program(), t)).collect();
                let ret = lower_type(b.program(), &sig.ret);
                let mut ops = Vec::with_capacity(args.len());
                for a in args {
                    ops.push(cx.operand(b.program(), a, *line)?);
                }
                let call =
                    b.invoke_expr(*kind, base, &sig.class, &sig.name, params, ret, ops);
                b.push_invoke(result, call);
            }
        }
    }
    // Every referenced label must have been declared; the builder would
    // otherwise panic on the unbound label.
    for name in cx.labels.keys() {
        if !cx.bound_labels.contains(name) {
            return Err(ParseError {
                message: format!("label `{name}` is never declared"),
                line: 0,
            });
        }
    }
    // Termination checks the builder would otherwise panic on: a label
    // at the very end needs a statement to bind to, and non-void
    // methods must not fall off the end.
    let last_real = stmts.iter().rev().find(|s| !matches!(s, AstStmt::Let { .. }));
    let ends_with_label = matches!(last_real, Some(AstStmt::LabelDecl { .. }));
    if ends_with_label {
        b.nop();
    }
    let terminated = !ends_with_label
        && matches!(
            last_real,
            Some(AstStmt::Return { .. } | AstStmt::Throw { .. } | AstStmt::Goto { .. })
        );
    let is_void = b.program().method(mid).subsig().ret == Type::Void;
    if !terminated && !is_void {
        return Err(ParseError {
            message: "non-void method may fall off the end of its body".to_owned(),
            line: 0,
        });
    }
    b.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdroid_ir::ProgramPrinter;

    fn parse_ok(src: &str) -> Program {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        parse_jasm(&mut p, &rt, src).unwrap_or_else(|e| panic!("{e}\nsource:\n{src}"));
        p
    }

    #[test]
    fn parses_minimal_class() {
        let p = parse_ok(
            "class A {\n  method run() -> void {\n    return\n  }\n}",
        );
        let a = p.find_class("A").unwrap();
        assert!(p.class(a).is_declared());
        let run = p.find_method("A", "run").unwrap();
        assert_eq!(p.method(run).body().unwrap().len(), 1);
    }

    #[test]
    fn parses_fields_and_statics() {
        let p = parse_ok(
            r#"
class B extends java.lang.Object {
  field name: java.lang.String
  static field count: int
  method set(n: java.lang.String) -> void {
    this.name = n
    static B.count = 3
    let c: int
    c = static B.count
    return
  }
}
"#,
        );
        let m = p.find_method("B", "set").unwrap();
        let text = ProgramPrinter::new(&p).method_to_string(m);
        assert!(text.contains("this.name = n"), "{text}");
        assert!(text.contains("B.count = 3"), "{text}");
        assert!(text.contains("c = B.count"), "{text}");
    }

    #[test]
    fn parses_invokes_and_branches() {
        let p = parse_ok(
            r#"
class C {
  method go(x: java.lang.String) -> java.lang.String {
    let y: java.lang.String
    y = staticinvoke <Env: java.lang.String source()>()
    if x == null goto out
    virtualinvoke y.<java.lang.String: void notify()>()
    goto out
  label out:
    return y
  }
}
"#,
        );
        let m = p.find_method("C", "go").unwrap();
        let body = p.method(m).body().unwrap();
        // y = source(); if; notify; goto; return
        assert_eq!(body.len(), 5);
        assert!(body.stmt(0).is_call());
        assert_eq!(body.cfg().succs(1), &[2, 4]);
    }

    #[test]
    fn parses_interface_and_abstract() {
        let p = parse_ok(
            r#"
interface I {
  method onEvent(d: java.lang.String) -> void
}
abstract class D implements I {
  abstract method helper() -> int
}
"#,
        );
        let i = p.find_class("I").unwrap();
        assert!(p.class(i).is_interface());
        let d = p.find_class("D").unwrap();
        assert!(p.class(d).is_abstract());
        assert!(p.is_subtype_of(d, i));
        let on_event = p.find_method("I", "onEvent").unwrap();
        assert!(!p.method(on_event).has_body());
    }

    #[test]
    fn parses_arrays_ops_and_casts() {
        let p = parse_ok(
            r#"
class E {
  method f(n: int) -> int {
    let a: int[]
    a = newarray int[n]
    a[0] = n
    let x: int
    x = a[0]
    x = x + 1
    x = neg x
    x = lengthof a
    let o: java.lang.Object
    let s: java.lang.String
    o = null
    s = (java.lang.String) o
    let t: boolean
    t = o instanceof java.lang.String
    return x
  }
}
"#,
        );
        let m = p.find_method("E", "f").unwrap();
        assert!(p.method(m).has_body());
    }

    #[test]
    fn parses_constructor_names() {
        let p = parse_ok(
            r#"
class F {
  method <init>(x: int) -> void {
    let u: F
    u = new F
    specialinvoke u.<F: void <init>(int)>(x)
    return
  }
}
"#,
        );
        assert!(p.find_method("F", "<init>").is_some());
    }

    #[test]
    fn resource_refs_resolve() {
        let layout = crate::layout::Layout::parse(
            "main",
            r#"<L><EditText android:id="@+id/pwd" android:inputType="textPassword"/></L>"#,
        )
        .unwrap();
        let rt = ResourceTable::from_layouts([&layout]);
        let mut p = Program::new();
        let src = r#"
class G {
  method f() -> int {
    let x: int
    x = @id/pwd
    return x
  }
}
"#;
        parse_jasm(&mut p, &rt, src).unwrap();
    }

    #[test]
    fn unresolved_resource_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err = parse_jasm(
            &mut p,
            &rt,
            "class H { method f() -> void { let x: int\n x = @id/nope\n return } }",
        )
        .unwrap_err();
        assert!(err.message.contains("unresolved resource"), "{err}");
    }

    #[test]
    fn unknown_local_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err =
            parse_jasm(&mut p, &rt, "class J { method f() -> void { x = 1\n return } }")
                .unwrap_err();
        assert!(err.message.contains("unknown local"), "{err}");
    }

    #[test]
    fn phantom_field_access_autodeclares() {
        let p = parse_ok(
            r#"
class K {
  method f() -> java.lang.Object {
    let x: java.lang.Object
    x = static android.os.Build.MODEL
    return x
  }
}
"#,
        );
        let build = p.find_class("android.os.Build").unwrap();
        assert!(!p.class(build).is_declared());
        assert_eq!(p.class(build).fields().len(), 1);
    }

    #[test]
    fn negative_ints_and_strings() {
        let p = parse_ok(
            "class L { method f() -> int { let x: int\n x = -5\n let s: java.lang.String\n s = \"a\\nb\"\n return x } }",
        );
        assert!(p.find_method("L", "f").is_some());
    }

    #[test]
    fn arg_count_mismatch_is_an_error() {
        let mut p = Program::new();
        let rt = ResourceTable::new();
        let err = parse_jasm(
            &mut p,
            &rt,
            "class M { method f() -> void { staticinvoke <X: void g(int)>()\n return } }",
        )
        .unwrap_err();
        assert!(err.message.contains("parameters"), "{err}");
    }

    #[test]
    fn line_numbers_are_recorded() {
        let p = parse_ok("class N {\n  method f() -> void {\n    nop\n    return\n  }\n}");
        let m = p.find_method("N", "f").unwrap();
        let body = p.method(m).body().unwrap();
        assert_eq!(body.line(0), 3);
        assert_eq!(body.line(1), 4);
    }

    /// Every redeclaration `Program::declare_*` would assert on is a
    /// parse error with the offending line, and leaves nothing half
    /// declared for the class-level cases.
    #[test]
    fn duplicate_declarations_are_parse_errors() {
        let cases = [
            ("class A { }\nclass A { }", 2, "class `A` declared twice"),
            ("class B {\n  field f: int\n  field f: java.lang.String\n}", 3, "field `f`"),
            (
                "class C {\n  method m(x: int) -> void { return }\n  \
                 method m(y: int) -> void { return }\n}",
                3,
                "method `m`",
            ),
            (
                "interface D {\n  method m() -> int\n  abstract method m() -> int\n}",
                3,
                "method `m`",
            ),
        ];
        for (src, line, what) in cases {
            let mut p = Program::new();
            let err = parse_jasm(&mut p, &ResourceTable::new(), src).unwrap_err();
            assert!(err.message.contains(what), "{err}");
            assert_eq!(err.line, line, "{err}");
        }
        // Overloads differ in parameter types, so they are not duplicates.
        parse_ok(
            "class E {\n  method m(x: int) -> void { return }\n  \
             method m(x: long) -> void { return }\n}",
        );

        // A class already in the program: declared by an earlier parse,
        // or by the frozen base an overlay program reads through.
        let mut p = Program::new();
        parse_jasm(&mut p, &ResourceTable::new(), "class F { }").unwrap();
        let err =
            parse_jasm(&mut p, &ResourceTable::new(), "class G { }\nclass F { }").unwrap_err();
        assert_eq!((err.line, err.message.as_str()), (2, "class `F` declared twice"));
        assert!(p.find_class("G").is_none(), "nothing is declared before the check");
        let mut overlay = Program::overlay(p.freeze());
        let err = parse_jasm(&mut overlay, &ResourceTable::new(), "class F { }").unwrap_err();
        assert!(err.message.contains("class `F` declared twice"), "{err}");
    }
}
