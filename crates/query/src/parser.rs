//! Parser for the Fuse By dialect.
//!
//! Implements the grammar of paper Fig. 1 plus the SPJ/grouping/sorting
//! subset the demo supports:
//!
//! ```text
//! query      := SELECT select_list (FUSE FROM | FROM) tables
//!               [WHERE expr] [FUSE BY (cols) | GROUP BY cols]
//!               [HAVING expr] [ORDER BY key [ASC|DESC], …] [;]
//! select_item:= * | RESOLVE(col [, func[(args)]]) [AS a]
//!             | agg(col|*) [AS a] | col [AS a]
//! ```
//!
//! Statements are read by recursive descent, every comma list by one rule
//! (`Parser::list`). Expressions are read by precedence climbing (Pratt,
//! "Top down operator precedence", 1973): one binding-power loop
//! (`Parser::expr_bp`) takes the infix operators, one prefix rule
//! (`Parser::prefix`) a leaf, a parenthesis, a call, a `NOT` run or a
//! unary-minus run. Loosest first, the operators bind as
//!
//! ```text
//! OR  <  AND  <  NOT  <  = <> < <= > >=, IS [NOT] NULL, [NOT] LIKE, [NOT] IN
//!     <  + -  <  * / %  <  unary -
//! ```
//!
//! where the predicates of the middle row do not associate (`a = b = c` is
//! an error) and take additive operands (an `IN` list holds additive
//! expressions too). A nested parenthesis or call argument recurses through
//! the loop and the prefix rule, so a statement's stack grows by one cycle
//! of those two frames per level.
//!
//! Keywords are contextual: any identifier equal (case-insensitively) to a
//! keyword plays that role where the keyword can stand, anything else is a
//! name. So `NOT` starts a run only at the start of an expression or of an
//! `AND` / `OR` operand; as an arithmetic or comparison operand it is a
//! column (`a + not = 1`), or a call when `(` follows (`a + not(b)`).

use crate::ast::{FromClause, FuseQuery, OrderKey, SelectItem};
use crate::error::{QueryError, Result};
use crate::lexer::{tokenize, Spanned, Token};
use hummer_engine::expr::{ArithOp, CmpOp};
use hummer_engine::{Expr, Value};
use hummer_fusion::ResolutionSpec;

/// Aggregate function names recognized in plain queries.
const AGGREGATES: [&str; 5] = ["min", "max", "sum", "avg", "count"];

/// The deepest expression tree a statement may build. Every operator,
/// `NOT`, unary minus, call and parenthesis counts one level; a deeper
/// statement is a syntax error. Parsing, evaluating and dropping an
/// expression recurse once per level, so this bounds the stack a query can
/// ask of the thread that runs it. On x86-64, a 2 MiB thread (a server
/// worker's) parses about 1,760 nested parentheses (1,430 nested calls) and
/// evaluates and drops about 6,000 levels of operators in a release build;
/// about 250 (220) and 300 in a debug build.
pub const MAX_EXPR_DEPTH: usize = 64;

// Binding powers, loosest first. An operator of power `p` takes a right
// operand of power above `p`.
const OR: u8 = 1;
const AND: u8 = 2;
const NOT: u8 = 3;
const PREDICATE: u8 = 4;
const SUM: u8 = 5;
const PRODUCT: u8 = 6;
const NEGATION: u8 = 7;
/// A leaf, a parenthesis or a call.
const OPERAND: u8 = 8;

/// What an infix operator builds.
enum Op {
    /// A node over the left and the right operand.
    Binary(fn(Box<Expr>, Box<Expr>) -> Expr),
    /// `IS [NOT] NULL`.
    Is,
    /// `LIKE 'pattern'`.
    Like,
    /// `IN (item, …)`.
    In,
}

/// Parse a Fuse By statement.
pub fn parse(input: &str) -> Result<FuseQuery> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Parentheses and call argument lists open around the current token.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    /// The token after the current one.
    fn peek_next(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|s| &s.token)
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            position: self.offset(),
            message: message.into(),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        self.peek().is_keyword(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        let at = self.at_keyword(kw);
        if at {
            self.advance();
        }
        at
    }

    fn eat(&mut self, t: &Token) -> bool {
        let at = self.peek() == t;
        if at {
            self.advance();
        }
        at
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.peek())))
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found `{}`", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        // A trailing semicolon is allowed.
        while self.eat(&Token::Semicolon) {}
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input `{}`", self.peek())))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek() {
            Token::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found `{other}`"))),
        }
    }

    /// A column reference, possibly qualified (`table.col` → `table.col`).
    fn column_ref(&mut self) -> Result<String> {
        let first = self.ident("column name")?;
        if self.eat(&Token::Dot) {
            let second = self.ident("column name after `.`")?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    /// The one comma-list rule: `item (, item)*`.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let mut items = vec![item(self)?];
        while self.eat(&Token::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    // -- query ------------------------------------------------------------

    fn query(&mut self) -> Result<FuseQuery> {
        self.expect_keyword("select")?;
        let select = self.list(Self::select_item)?;
        let fuse = self.eat_keyword("fuse");
        self.expect_keyword("from")?;
        let tables = self.list(|p| p.ident("table name"))?;
        let where_clause = self.clause("where")?;

        let mut fuse_by = None;
        let mut group_by = Vec::new();
        if self.eat_keyword("fuse") {
            self.expect_keyword("by")?;
            self.expect(&Token::LParen, "`(` after FUSE BY")?;
            fuse_by = Some(self.list(Self::column_ref)?);
            self.expect(&Token::RParen, "`)` closing FUSE BY")?;
        } else if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            group_by = self.list(Self::column_ref)?;
        }

        let having = self.clause("having")?;

        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            order_by = self.list(|p| {
                let column = p.column_ref()?;
                let ascending = !p.eat_keyword("desc");
                if ascending {
                    p.eat_keyword("asc");
                }
                Ok(OrderKey { column, ascending })
            })?;
        }

        Ok(FuseQuery {
            select,
            from: FromClause { tables, fuse },
            where_clause,
            fuse_by,
            group_by,
            having,
            order_by,
        })
    }

    /// `kw expr`, if the statement has that clause.
    fn clause(&mut self, kw: &str) -> Result<Option<Expr>> {
        if self.eat_keyword(kw) {
            Ok(Some(self.expr_bp(OR)?.0))
        } else {
            Ok(None)
        }
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("as") {
            Ok(Some(self.ident("alias after AS")?))
        } else {
            Ok(None)
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        if self.eat_keyword("resolve") {
            self.expect(&Token::LParen, "`(` after RESOLVE")?;
            let column = self.column_ref()?;
            let function = if self.eat(&Token::Comma) {
                Some(self.resolution_spec()?)
            } else {
                None
            };
            self.expect(&Token::RParen, "`)` closing RESOLVE")?;
            let alias = self.alias()?;
            return Ok(SelectItem::Resolve {
                column,
                function,
                alias,
            });
        }
        // Aggregate call? (name must be a known aggregate AND followed by `(`)
        if let Token::Ident(name) = self.peek() {
            let lower = name.to_ascii_lowercase();
            if AGGREGATES.contains(&lower.as_str()) && self.peek_next() == Some(&Token::LParen) {
                self.advance(); // name
                self.advance(); // (
                let column = if self.eat(&Token::Star) {
                    None
                } else {
                    Some(self.column_ref()?)
                };
                self.expect(&Token::RParen, "`)` closing aggregate")?;
                let alias = self.alias()?;
                return Ok(SelectItem::Aggregate {
                    function: lower,
                    column,
                    alias,
                });
            }
        }
        let name = self.column_ref()?;
        let alias = self.alias()?;
        Ok(SelectItem::Column { name, alias })
    }

    /// `max` | `choose('src')` | `mostrecent(Updated)` | `concat('; ')` …
    fn resolution_spec(&mut self) -> Result<ResolutionSpec> {
        let function = self.ident("resolution function name")?;
        let mut args = Vec::new();
        if self.eat(&Token::LParen) {
            if !matches!(self.peek(), Token::RParen) {
                args = self.list(|p| match p.advance() {
                    Token::Str(s) | Token::Ident(s) => Ok(s),
                    Token::Int(i) => Ok(i.to_string()),
                    Token::Float(f) => Ok(f.to_string()),
                    other => Err(p.error(format!("expected resolution argument, found `{other}`"))),
                })?;
            }
            self.expect(&Token::RParen, "`)` closing resolution arguments")?;
        }
        Ok(ResolutionSpec::with_args(function, args))
    }

    // -- expressions --------------------------------------------------------
    //
    // Both expression rules return the expression with the depth of its
    // tree, and no tree deeper than `MAX_EXPR_DEPTH` is ever built.

    /// `depth` if it is within [`MAX_EXPR_DEPTH`], else a syntax error.
    fn level(&self, depth: usize) -> Result<usize> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth)
    }

    /// Opens a parenthesis or call argument list. The nesting is bounded on
    /// the way down, so the parse cannot recurse past the limit before the
    /// depth of what it built is known.
    fn enter(&mut self) -> Result<()> {
        self.nesting = self.level(self.nesting + 1)?;
        Ok(())
    }

    /// The operator table: the binding power of the operator at the current
    /// token and the node it builds, or `None` where an expression ends.
    fn infix(&self) -> Option<(u8, Op)> {
        // `NOT LIKE` and `NOT IN` are the negated predicates.
        if self.at_keyword("not") {
            return match self.peek_next()? {
                t if t.is_keyword("like") => Some((PREDICATE, Op::Like)),
                t if t.is_keyword("in") => Some((PREDICATE, Op::In)),
                _ => None,
            };
        }
        Some(match self.peek() {
            t if t.is_keyword("or") => (OR, Op::Binary(Expr::Or)),
            t if t.is_keyword("and") => (AND, Op::Binary(Expr::And)),
            Token::Eq => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Eq, l, r))),
            Token::Ne => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Ne, l, r))),
            Token::Lt => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Lt, l, r))),
            Token::Le => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Le, l, r))),
            Token::Gt => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Gt, l, r))),
            Token::Ge => (PREDICATE, Op::Binary(|l, r| Expr::Cmp(CmpOp::Ge, l, r))),
            t if t.is_keyword("is") => (PREDICATE, Op::Is),
            t if t.is_keyword("like") => (PREDICATE, Op::Like),
            t if t.is_keyword("in") => (PREDICATE, Op::In),
            Token::Plus => (SUM, Op::Binary(|l, r| Expr::Arith(ArithOp::Add, l, r))),
            Token::Minus => (SUM, Op::Binary(|l, r| Expr::Arith(ArithOp::Sub, l, r))),
            Token::Star => (PRODUCT, Op::Binary(|l, r| Expr::Arith(ArithOp::Mul, l, r))),
            Token::Slash => (PRODUCT, Op::Binary(|l, r| Expr::Arith(ArithOp::Div, l, r))),
            Token::Percent => (PRODUCT, Op::Binary(|l, r| Expr::Arith(ArithOp::Mod, l, r))),
            _ => return None,
        })
    }

    /// The binding-power loop: an expression whose operators bind at least
    /// as tightly as `min`, with its depth.
    fn expr_bp(&mut self, min: u8) -> Result<(Expr, usize)> {
        let (mut left, mut depth, mut power) = self.prefix(min)?;
        while let Some((op_power, op)) = self.infix() {
            // `left` is an operand if it binds more tightly than the
            // operator, or as tightly under a left-associative one (all but
            // the predicates).
            let takes_left = power > op_power || (power == op_power && op_power != PREDICATE);
            if op_power < min || !takes_left {
                break;
            }
            let negated = self.eat_keyword("not");
            self.advance();
            let operand = Box::new(left);
            let (node, below) = match op {
                Op::Binary(join) => {
                    let (right, d) = self.expr_bp(op_power + 1)?;
                    (join(operand, Box::new(right)), depth.max(d))
                }
                Op::Is if self.eat_keyword("not") => {
                    self.expect_keyword("null")?;
                    (Expr::IsNotNull(operand), depth)
                }
                Op::Is => {
                    self.expect_keyword("null")?;
                    (Expr::IsNull(operand), depth)
                }
                Op::Like => match self.advance() {
                    Token::Str(pattern) => (Expr::Like(operand, pattern), depth),
                    other => {
                        return Err(self.error(format!("expected pattern string, found `{other}`")))
                    }
                },
                Op::In => {
                    self.expect(&Token::LParen, "`(` after IN")?;
                    let items = self.list(|p| p.expr_bp(SUM))?;
                    self.expect(&Token::RParen, "`)` closing IN list")?;
                    let deepest = items.iter().fold(depth, |d, item| d.max(item.1));
                    let list = items.into_iter().map(|item| item.0).collect();
                    (Expr::In(operand, list), deepest)
                }
            };
            depth = self.level(below + 1 + usize::from(negated))?;
            left = if negated {
                Expr::Not(Box::new(node))
            } else {
                node
            };
            power = op_power;
        }
        Ok((left, depth))
    }

    /// The prefix rule: a `NOT` run (where an expression of power `min` can
    /// start with one), or a unary-minus run over a leaf, a parenthesis or a
    /// call; with its depth and binding power.
    fn prefix(&mut self, min: u8) -> Result<(Expr, usize, u8)> {
        if min <= NOT && self.at_keyword("not") {
            let mut nots = 0;
            while self.eat_keyword("not") {
                nots += 1;
            }
            let (mut e, depth) = self.expr_bp(PREDICATE)?;
            let depth = self.level(depth + nots)?;
            for _ in 0..nots {
                e = Expr::Not(Box::new(e));
            }
            return Ok((e, depth, NOT));
        }
        let mut negations = 0;
        while self.eat(&Token::Minus) {
            negations += 1;
        }
        // The operand and the depth below it: a leaf has none.
        let (mut e, below) = match self.peek() {
            Token::LParen => {
                self.advance();
                self.enter()?;
                let inner = self.expr_bp(OR)?;
                self.nesting -= 1;
                self.expect(&Token::RParen, "`)`")?;
                inner
            }
            Token::Ident(name) if self.peek_next() == Some(&Token::LParen) => {
                let name = name.clone();
                self.advance(); // name
                self.advance(); // (
                self.enter()?;
                let args = if matches!(self.peek(), Token::RParen) {
                    Vec::new()
                } else {
                    self.list(|p| p.expr_bp(OR))?
                };
                self.nesting -= 1;
                self.expect(&Token::RParen, "`)` closing function call")?;
                let deepest = args.iter().map(|arg| arg.1).max().unwrap_or(0);
                let args = args.into_iter().map(|arg| arg.0).collect();
                (Expr::Call(name, args), deepest)
            }
            token => {
                let leaf = match token {
                    Token::Int(i) => Expr::lit(*i),
                    Token::Float(f) => Expr::lit(*f),
                    Token::Str(s) => Expr::lit(s.as_str()),
                    t if t.is_keyword("null") => Expr::Literal(Value::Null),
                    t if t.is_keyword("true") => Expr::lit(true),
                    t if t.is_keyword("false") => Expr::lit(false),
                    Token::Ident(_) => Expr::Column(self.column_ref()?),
                    other => {
                        return Err(self.error(format!("expected expression, found `{other}`")))
                    }
                };
                if !matches!(leaf, Expr::Column(_)) {
                    self.advance();
                }
                (leaf, 0)
            }
        };
        let depth = self.level(below + 1 + negations)?;
        for _ in 0..negations {
            e = Expr::Neg(Box::new(e));
        }
        let power = if negations > 0 { NEGATION } else { OPERAND };
        Ok((e, depth, power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_parses() {
        // Verbatim from §2.1.
        let q = parse(
            "SELECT Name, RESOLVE(Age, max)\n\
             FUSE FROM EE_Student, CS_Students\n\
             FUSE BY (Name)",
        )
        .unwrap();
        assert!(q.from.fuse);
        assert_eq!(q.from.tables, vec!["EE_Student", "CS_Students"]);
        assert_eq!(q.fuse_by, Some(vec!["Name".to_string()]));
        assert_eq!(q.select.len(), 2);
        match &q.select[1] {
            SelectItem::Resolve {
                column, function, ..
            } => {
                assert_eq!(column, "Age");
                assert_eq!(function.as_ref().unwrap().function, "max");
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn wildcard_and_default_resolve() {
        let q = parse("SELECT * FUSE FROM A, B FUSE BY (id)").unwrap();
        assert_eq!(q.select, vec![SelectItem::Wildcard]);
        let q2 = parse("SELECT RESOLVE(City) FUSE FROM A FUSE BY (id)").unwrap();
        match &q2.select[0] {
            SelectItem::Resolve { function, .. } => assert!(function.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resolution_function_with_args() {
        let q = parse(
            "SELECT RESOLVE(Price, choose('cheapstore')), RESOLVE(Title, mostrecent(Updated)) \
             FUSE FROM A, B FUSE BY (id)",
        )
        .unwrap();
        match &q.select[0] {
            SelectItem::Resolve {
                function: Some(f), ..
            } => {
                assert_eq!(f.function, "choose");
                assert_eq!(f.args, vec!["cheapstore"]);
            }
            other => panic!("{other:?}"),
        }
        match &q.select[1] {
            SelectItem::Resolve {
                function: Some(f), ..
            } => {
                assert_eq!(f.function, "mostrecent");
                assert_eq!(f.args, vec!["Updated"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plain_sql_with_group_by_and_aggregates() {
        let q = parse(
            "SELECT City, count(*) AS n, avg(Age) FROM People \
             WHERE Age > 18 GROUP BY City HAVING n > 2 ORDER BY n DESC, City",
        )
        .unwrap();
        assert!(!q.is_fusion());
        assert_eq!(q.group_by, vec!["City"]);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].ascending);
        assert!(q.order_by[1].ascending);
        match &q.select[1] {
            SelectItem::Aggregate {
                function,
                column,
                alias,
            } => {
                assert_eq!(function, "count");
                assert!(column.is_none());
                assert_eq!(alias.as_deref(), Some("n"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_with_fusion_and_having() {
        let q = parse(
            "SELECT Name, RESOLVE(Age, max) FUSE FROM A, B \
             WHERE Age IS NOT NULL FUSE BY (Name) HAVING Age > 20 ORDER BY Name",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
    }

    #[test]
    fn expression_precedence() {
        let q = parse("SELECT * FROM T WHERE a + b * 2 > 10 AND NOT c = 'x' OR d IS NULL").unwrap();
        // OR is outermost.
        match q.where_clause.unwrap() {
            Expr::Or(_, _) => {}
            other => panic!("expected OR at root, got {other:?}"),
        }
    }

    #[test]
    fn like_in_between_tokens() {
        let q = parse(
            "SELECT * FROM T WHERE Name LIKE 'J%' AND City IN ('Berlin', 'Paris') AND x NOT LIKE '%z'",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn qualified_column_names() {
        let q = parse("SELECT A.Name FROM A, B WHERE A.id = B.id").unwrap();
        match &q.select[0] {
            SelectItem::Column { name, .. } => assert_eq!(name, "A.Name"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aliases() {
        let q = parse("SELECT Name AS n, RESOLVE(Age, max) AS oldest FROM T").unwrap();
        match &q.select[0] {
            SelectItem::Column { alias, .. } => assert_eq!(alias.as_deref(), Some("n")),
            other => panic!("{other:?}"),
        }
        match &q.select[1] {
            SelectItem::Resolve { alias, .. } => assert_eq!(alias.as_deref(), Some("oldest")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT * FROM T;").is_ok());
    }

    #[test]
    fn syntax_errors_carry_position() {
        let e = parse("SELECT FROM T").unwrap_err();
        match e {
            QueryError::Parse { position, .. } => assert!(position > 0),
            other => panic!("{other:?}"),
        }
        assert!(parse("SELECT * T").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM T WHERE").is_err());
        assert!(parse("SELECT * FROM T FUSE BY Name").is_err()); // missing parens
        assert!(parse("SELECT * FROM T extra junk").is_err());
    }

    #[test]
    fn fuse_by_multiple_columns() {
        let q = parse("SELECT * FUSE FROM A FUSE BY (Name, City)").unwrap();
        assert_eq!(
            q.fuse_by,
            Some(vec!["Name".to_string(), "City".to_string()])
        );
    }

    #[test]
    fn min_max_as_column_names_without_parens() {
        // `max` is only an aggregate when followed by `(`.
        let q = parse("SELECT max FROM T").unwrap();
        match &q.select[0] {
            SelectItem::Column { name, .. } => assert_eq!(name, "max"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_function_in_where() {
        let q = parse("SELECT * FROM T WHERE LOWER(Name) = 'bob'").unwrap();
        match q.where_clause.unwrap() {
            Expr::Cmp(CmpOp::Eq, l, _) => match *l {
                Expr::Call(name, _) => assert_eq!(name, "LOWER"),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    /// Runs `f` on a thread with the 2 MiB stack a server worker gets.
    fn on_worker_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(f).unwrap().join().unwrap()
    }

    /// `SELECT a FROM t WHERE` over each shape of deep expression, each
    /// tree exactly `depth` levels deep: parentheses, an operator chain, a
    /// `NOT` run, a unary-minus run, nested calls, `OR` and `AND` chains,
    /// and mixed nesting.
    fn deep_statements(depth: usize) -> Vec<String> {
        // Every shape ends in a comparison of a leaf: two levels.
        let n = depth - 2;
        let chain = |op: &str| format!("a = 1{}", format!(" {op} a = 1").repeat(n));
        let innermost = if n % 2 == 1 { "- 1" } else { "1" };
        [
            format!("{}1{} = 1", "(".repeat(n), ")".repeat(n)),
            format!("1{} = 1", " + 1".repeat(n)),
            format!("{}a = 1", "NOT ".repeat(n)),
            format!("{}1 = 1", "- ".repeat(n)),
            format!("{}a{} = 1", "abs(".repeat(n), ")".repeat(n)),
            chain("OR"),
            chain("AND"),
            format!(
                "{}{innermost}{} = 1",
                "(1 * ".repeat(n / 2),
                ")".repeat(n / 2)
            ),
        ]
        .map(|e| format!("SELECT a FROM t WHERE {e}"))
        .to_vec()
    }

    /// A request can nest as deep as its body is long; a stack cannot.
    /// Each of these aborted the process (a stack overflow is no panic)
    /// while parsing, or, for the chain, when the tree it built was
    /// dropped.
    #[test]
    fn deep_expressions_are_syntax_errors() {
        for sql in deep_statements(100_000) {
            let head = sql[..40].to_string();
            let outcome = on_worker_stack(move || parse(&sql).map(drop));
            assert!(
                matches!(outcome, Err(QueryError::Parse { .. })),
                "{head}…: {outcome:?}"
            );
        }
    }

    /// At exactly [`MAX_EXPR_DEPTH`] every shape parses, evaluates in
    /// `WHERE` and drops on a worker's stack; one level more is an error.
    #[test]
    fn expressions_at_the_depth_cap_parse_evaluate_and_drop() {
        use crate::{execute, TableSet};
        use hummer_fusion::FunctionRegistry;
        for (at_cap, over) in deep_statements(MAX_EXPR_DEPTH)
            .into_iter()
            .zip(deep_statements(MAX_EXPR_DEPTH + 1))
        {
            assert!(parse(&over).is_err(), "{over}");
            let rows = on_worker_stack(move || {
                let q = parse(&at_cap).unwrap();
                let mut catalog = TableSet::new();
                catalog.add(hummer_engine::table! { "t" => ["a"]; [1], [2] });
                let out = execute(&q, &catalog, &FunctionRegistry::standard()).unwrap();
                out.table.len()
            });
            assert!(rows <= 2);
        }
    }

    #[test]
    fn negative_numbers_and_arithmetic() {
        let q = parse("SELECT * FROM T WHERE x > -5 AND y % 2 = 0").unwrap();
        assert!(q.where_clause.is_some());
    }

    /// Expression trees over every node the parser builds, rendered back
    /// to SQL: a seeded property test of the whole expression grammar.
    mod grammar {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Binding levels, loosest first, as the minimal rendering needs them.
        const OR: u8 = 1;
        const AND: u8 = 2;
        const NOT: u8 = 3;
        const PREDICATE: u8 = 4;
        const ADD: u8 = 5;
        const MUL: u8 = 6;
        const NEG: u8 = 7;
        const PRIMARY: u8 = 8;

        /// How tightly `e` binds as rendered. `x NOT LIKE p` and
        /// `x NOT IN (..)` render their `Not` as a predicate.
        fn level(e: &Expr) -> u8 {
            match e {
                Expr::Or(..) => OR,
                Expr::And(..) => AND,
                Expr::Not(inner) if matches!(**inner, Expr::Like(..) | Expr::In(..)) => PREDICATE,
                Expr::Not(_) => NOT,
                Expr::Cmp(..)
                | Expr::IsNull(_)
                | Expr::IsNotNull(_)
                | Expr::Like(..)
                | Expr::In(..) => PREDICATE,
                Expr::Arith(ArithOp::Add | ArithOp::Sub, ..) => ADD,
                Expr::Arith(..) => MUL,
                Expr::Neg(_) => NEG,
                Expr::Column(_) | Expr::Literal(_) | Expr::Call(..) => PRIMARY,
            }
        }

        fn depth(e: &Expr) -> usize {
            1 + match e {
                Expr::Column(_) | Expr::Literal(_) => 0,
                Expr::Not(x) | Expr::Neg(x) | Expr::IsNull(x) | Expr::IsNotNull(x) => depth(x),
                Expr::Like(x, _) => depth(x),
                Expr::Cmp(_, l, r) | Expr::Arith(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                    depth(l).max(depth(r))
                }
                Expr::In(x, list) => list.iter().map(depth).fold(depth(x), usize::max),
                Expr::Call(_, args) => args.iter().map(depth).max().unwrap_or(0),
            }
        }

        const COLUMNS: [&str; 6] = ["a", "b", "Name", "t.c", "_x1", "odd name"];
        const FUNCTIONS: [&str; 3] = ["abs", "LOWER", "f"];
        const STRINGS: [&str; 4] = ["", "J%", "it's", "a_b"];

        fn leaf(rng: &mut StdRng) -> Expr {
            match rng.gen_range(0..7) {
                0 => Expr::lit(rng.gen_range(0..1_000i64)),
                1 => Expr::lit(i64::MAX),
                2 => Expr::lit(rng.gen_range(0..1_000) as f64 + rng.gen_range(0..4) as f64 / 4.0),
                3 => Expr::lit(STRINGS[rng.gen_range(0..STRINGS.len())]),
                4 => match rng.gen_range(0..3) {
                    0 => Expr::Literal(Value::Null),
                    n => Expr::lit(n == 1),
                },
                _ => Expr::col(COLUMNS[rng.gen_range(0..COLUMNS.len())]),
            }
        }

        /// A tree at most `budget` levels deep.
        fn tree(rng: &mut StdRng, budget: usize) -> Expr {
            if budget <= 1 || rng.gen_bool(0.2) {
                return leaf(rng);
            }
            let sub = |rng: &mut StdRng| {
                // Half the subtrees take the whole budget, so trees get deep.
                let budget = if rng.gen_bool(0.5) {
                    budget - 1
                } else {
                    rng.gen_range(1..budget)
                };
                Box::new(tree(rng, budget))
            };
            const CMP: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            const ARITH: [ArithOp; 5] = [
                ArithOp::Add,
                ArithOp::Sub,
                ArithOp::Mul,
                ArithOp::Div,
                ArithOp::Mod,
            ];
            match rng.gen_range(0..11) {
                0 => {
                    let name = FUNCTIONS[rng.gen_range(0..FUNCTIONS.len())].to_string();
                    Expr::Call(name, (0..rng.gen_range(0..4)).map(|_| *sub(rng)).collect())
                }
                1 => Expr::Neg(sub(rng)),
                2 => Expr::Arith(ARITH[rng.gen_range(0..5)], sub(rng), sub(rng)),
                3 => Expr::Cmp(CMP[rng.gen_range(0..6)], sub(rng), sub(rng)),
                4 => Expr::And(sub(rng), sub(rng)),
                5 => Expr::Or(sub(rng), sub(rng)),
                6 => Expr::Not(sub(rng)),
                7 => Expr::IsNull(sub(rng)),
                8 => Expr::IsNotNull(sub(rng)),
                9 => Expr::Like(sub(rng), STRINGS[rng.gen_range(0..STRINGS.len())].into()),
                _ => Expr::In(
                    sub(rng),
                    (0..rng.gen_range(1..4)).map(|_| *sub(rng)).collect(),
                ),
            }
        }

        /// `e` as SQL, parenthesized where it binds looser than `min`, or,
        /// with `full`, wherever it is not a leaf.
        fn render(e: &Expr, min: u8, full: bool) -> String {
            let r = |e: &Expr, min: u8| render(e, min, full);
            let list = |items: &[Expr], min: u8| {
                items
                    .iter()
                    .map(|x| r(x, min))
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let text = match e {
                Expr::Column(name) if name.contains(' ') => return format!("\"{name}\""),
                Expr::Column(name) => return name.clone(),
                Expr::Literal(Value::Text(s)) => return format!("'{}'", s.replace('\'', "''")),
                Expr::Literal(Value::Float(x)) => return format!("{x:?}"),
                Expr::Literal(Value::Null) => return "NULL".into(),
                Expr::Literal(Value::Bool(b)) => return if *b { "TRUE" } else { "false" }.into(),
                Expr::Literal(v) => return v.to_string(),
                Expr::Call(name, args) => format!("{name}({})", list(args, OR)),
                Expr::Neg(x) => format!("- {}", r(x, NEG)),
                Expr::Arith(op, a, b) => {
                    let l = level(e);
                    format!("{} {op} {}", r(a, l), r(b, l + 1))
                }
                Expr::Cmp(op, a, b) => format!("{} {op} {}", r(a, ADD), r(b, ADD)),
                Expr::And(a, b) => format!("{} AND {}", r(a, AND), r(b, NOT)),
                Expr::Or(a, b) => format!("{} or {}", r(a, OR), r(b, AND)),
                Expr::Not(x) if !full => match &**x {
                    Expr::Like(a, p) => {
                        format!("{} NOT LIKE '{}'", r(a, ADD), p.replace('\'', "''"))
                    }
                    Expr::In(a, items) => format!("{} not in ({})", r(a, ADD), list(items, ADD)),
                    _ => format!("NOT {}", r(x, NOT)),
                },
                Expr::Not(x) => format!("NOT {}", r(x, NOT)),
                Expr::IsNull(x) => format!("{} IS NULL", r(x, ADD)),
                Expr::IsNotNull(x) => format!("{} is not NULL", r(x, ADD)),
                Expr::Like(x, p) => format!("{} like '{}'", r(x, ADD), p.replace('\'', "''")),
                Expr::In(x, items) => format!("{} IN ({})", r(x, ADD), list(items, ADD)),
            };
            if full || level(e) < min {
                format!("({text})")
            } else {
                text
            }
        }

        fn where_clause(sql: &str) -> Result<Expr> {
            let q = parse(&format!("SELECT * FROM t WHERE {sql}"))?;
            Ok(q.where_clause.expect("a WHERE clause"))
        }

        /// Every tree comes back from both renderings; the fully
        /// parenthesized one nests up to twice as deep, so trees stay
        /// within half the cap.
        #[test]
        fn rendered_trees_parse_back() {
            let mut rng = StdRng::seed_from_u64(0x5EED_F05E);
            let mut deepest = 0;
            for case in 0..3_000 {
                let budget = rng.gen_range(1..=MAX_EXPR_DEPTH / 2);
                let e = tree(&mut rng, budget);
                deepest = deepest.max(depth(&e));
                for full in [false, true] {
                    let sql = render(&e, OR, full);
                    match where_clause(&sql) {
                        Ok(back) => assert_eq!(back, e, "case {case}: {sql}"),
                        Err(err) => panic!("case {case}: {sql}: {err}"),
                    }
                }
            }
            assert!(deepest >= MAX_EXPR_DEPTH / 4, "deepest tree {deepest}");
        }

        /// Contextual keywords and the non-associative predicates.
        #[test]
        fn keywords_by_position_and_non_associative_predicates() {
            let (a, b, one) = (Expr::col("a"), Expr::col("b"), Expr::lit(1i64));
            let not = |e: Expr| Expr::Not(Box::new(e));
            let neg = |e: Expr| Expr::Neg(Box::new(e));
            let arith = |op, l, r| Expr::Arith(op, Box::new(l), Box::new(r));
            let cases = [
                (
                    "a + not = 1",
                    arith(ArithOp::Add, a.clone(), Expr::col("not")).eq(one.clone()),
                ),
                ("and = 1", Expr::col("and").eq(one.clone())),
                ("not(a = 1)", not(a.clone().eq(one.clone()))),
                (
                    "- - a * b > 1",
                    arith(ArithOp::Mul, neg(neg(a.clone())), b.clone()).gt(one.clone()),
                ),
                (
                    "a + not(b)",
                    arith(
                        ArithOp::Add,
                        a.clone(),
                        Expr::Call("not".into(), vec![b.clone()]),
                    ),
                ),
                ("NOT NOT a", not(not(a.clone()))),
                (
                    "NOT a = 1 AND b",
                    not(a.clone().eq(one.clone())).and(b.clone()),
                ),
                (
                    "NOT IN (1)",
                    not(Expr::Call("IN".into(), vec![one.clone()])),
                ),
                (
                    "a = NOT and b",
                    a.clone().eq(Expr::col("NOT")).and(b.clone()),
                ),
                ("- NOT", neg(Expr::col("NOT"))),
                ("is IS NULL", Expr::IsNull(Box::new(Expr::col("is")))),
                (
                    "a IN (NOT, or)",
                    Expr::In(Box::new(a.clone()), vec![Expr::col("NOT"), Expr::col("or")]),
                ),
                ("f()", Expr::Call("f".into(), vec![])),
                ("((a))", a.clone()),
            ];
            for (sql, want) in cases {
                assert_eq!(where_clause(sql).ok(), Some(want), "{sql}");
            }
            for sql in [
                "a = b = c",
                "a = NOT b",
                "a IS NULL = 1",
                "a IS NULL + 1",
                "a LIKE 'x' * 2",
                "NOT a = 1 = 2",
                "b AND a = 1 < 2",
                "a IN (b = 1)",
                "a IN ()",
                "a NOT b",
                "NOT",
            ] {
                assert!(
                    matches!(where_clause(sql), Err(QueryError::Parse { .. })),
                    "{sql}: {:?}",
                    where_clause(sql)
                );
            }
        }
    }
}
