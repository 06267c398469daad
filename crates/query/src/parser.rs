//! Recursive-descent parser for the Fuse By dialect.
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
//! Keywords are contextual: any identifier equal (case-insensitively) to a
//! keyword plays that role, anything else is a name.

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
/// worker's) parses about 1,000 nested parentheses and evaluates and drops
/// about 6,000 levels of operators in a release build; about 200 and 300
/// in a debug build.
pub const MAX_EXPR_DEPTH: usize = 64;

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
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.peek())))
        }
    }

    fn expect(&mut self, t: &Token, what: &str) -> Result<()> {
        if self.peek() == t {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found `{}`", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        // A trailing semicolon is allowed.
        while matches!(self.peek(), Token::Semicolon) {
            self.advance();
        }
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
        if matches!(self.peek(), Token::Dot) {
            self.advance();
            let second = self.ident("column name after `.`")?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    // -- query ------------------------------------------------------------

    fn query(&mut self) -> Result<FuseQuery> {
        self.expect_keyword("select")?;
        let select = self.select_list()?;
        let from = self.parse_from_clause()?;
        let where_clause = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut fuse_by = None;
        let mut group_by = Vec::new();
        if self.at_keyword("fuse") {
            self.advance();
            self.expect_keyword("by")?;
            self.expect(&Token::LParen, "`(` after FUSE BY")?;
            let mut cols = vec![self.column_ref()?];
            while matches!(self.peek(), Token::Comma) {
                self.advance();
                cols.push(self.column_ref()?);
            }
            self.expect(&Token::RParen, "`)` closing FUSE BY")?;
            fuse_by = Some(cols);
        } else if self.at_keyword("group") {
            self.advance();
            self.expect_keyword("by")?;
            group_by.push(self.column_ref()?);
            while matches!(self.peek(), Token::Comma) {
                self.advance();
                group_by.push(self.column_ref()?);
            }
        }

        let having = if self.eat_keyword("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let column = self.column_ref()?;
                let ascending = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                order_by.push(OrderKey { column, ascending });
                if matches!(self.peek(), Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }

        Ok(FuseQuery {
            select,
            from,
            where_clause,
            fuse_by,
            group_by,
            having,
            order_by,
        })
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = vec![self.select_item()?];
        while matches!(self.peek(), Token::Comma) {
            self.advance();
            items.push(self.select_item()?);
        }
        Ok(items)
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("as") {
            Ok(Some(self.ident("alias after AS")?))
        } else {
            Ok(None)
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if matches!(self.peek(), Token::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        if self.at_keyword("resolve") {
            self.advance();
            self.expect(&Token::LParen, "`(` after RESOLVE")?;
            let column = self.column_ref()?;
            let function = if matches!(self.peek(), Token::Comma) {
                self.advance();
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
            if AGGREGATES.contains(&lower.as_str())
                && self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::LParen)
            {
                self.advance(); // name
                self.advance(); // (
                let column = if matches!(self.peek(), Token::Star) {
                    self.advance();
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
        if matches!(self.peek(), Token::LParen) {
            self.advance();
            if !matches!(self.peek(), Token::RParen) {
                loop {
                    match self.advance() {
                        Token::Str(s) => args.push(s),
                        Token::Ident(s) => args.push(s),
                        Token::Int(i) => args.push(i.to_string()),
                        Token::Float(f) => args.push(f.to_string()),
                        other => {
                            return Err(self
                                .error(format!("expected resolution argument, found `{other}`")))
                        }
                    }
                    if matches!(self.peek(), Token::Comma) {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Token::RParen, "`)` closing resolution arguments")?;
        }
        Ok(ResolutionSpec::with_args(function, args))
    }

    fn parse_from_clause(&mut self) -> Result<FromClause> {
        let fuse = if self.at_keyword("fuse") {
            self.advance();
            self.expect_keyword("from")?;
            true
        } else {
            self.expect_keyword("from")?;
            false
        };
        let mut tables = vec![self.ident("table name")?];
        while matches!(self.peek(), Token::Comma) {
            self.advance();
            tables.push(self.ident("table name")?);
        }
        Ok(FromClause { tables, fuse })
    }

    // -- expressions --------------------------------------------------------
    //
    // Each expression parser returns the expression with the depth of its
    // tree, and no tree deeper than `MAX_EXPR_DEPTH` is ever built.

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.or_expr()?.0)
    }

    /// `depth` if it is within [`MAX_EXPR_DEPTH`], else a syntax error.
    fn level(&self, depth: usize) -> Result<usize> {
        if depth > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        Ok(depth)
    }

    /// Out of line, so its formatting takes no room in the frame of every
    /// expression parser.
    #[cold]
    #[inline(never)]
    fn too_deep(&self) -> QueryError {
        self.error(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ))
    }

    /// An expression inside parentheses or call arguments. The nesting is
    /// bounded on the way down too, so the parse itself cannot recurse
    /// past the limit before the depth of what it built is known.
    fn nested(&mut self) -> Result<(Expr, usize)> {
        self.nesting = self.level(self.nesting + 1)?;
        let inner = self.or_expr()?;
        self.nesting -= 1;
        Ok(inner)
    }

    fn or_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut left, mut depth) = self.and_expr()?;
        while self.eat_keyword("or") {
            let (right, d) = self.and_expr()?;
            depth = self.level(depth.max(d) + 1)?;
            left = left.or(right);
        }
        Ok((left, depth))
    }

    fn and_expr(&mut self) -> Result<(Expr, usize)> {
        let (mut left, mut depth) = self.not_expr()?;
        while self.eat_keyword("and") {
            let (right, d) = self.not_expr()?;
            depth = self.level(depth.max(d) + 1)?;
            left = left.and(right);
        }
        Ok((left, depth))
    }

    fn not_expr(&mut self) -> Result<(Expr, usize)> {
        let mut nots = 0;
        while self.eat_keyword("not") {
            nots += 1;
        }
        let (mut e, depth) = self.predicate()?;
        let depth = self.level(depth + nots)?;
        for _ in 0..nots {
            e = Expr::Not(Box::new(e));
        }
        Ok((e, depth))
    }

    fn predicate(&mut self) -> Result<(Expr, usize)> {
        let (left, depth) = self.additive()?;
        self.predicate_tail(left, depth)
    }

    /// What follows a predicate's left operand, if anything. Kept out of
    /// [`Parser::predicate`], whose frame every nesting level stacks.
    #[inline(never)]
    fn predicate_tail(&mut self, left: Expr, depth: usize) -> Result<(Expr, usize)> {
        // IS [NOT] NULL
        if self.at_keyword("is") {
            self.advance();
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            let depth = self.level(depth + 1)?;
            return Ok(if negated {
                (Expr::IsNotNull(Box::new(left)), depth)
            } else {
                (Expr::IsNull(Box::new(left)), depth)
            });
        }
        // [NOT] LIKE / IN
        let negated = self.at_keyword("not")
            && self
                .tokens
                .get(self.pos + 1)
                .map(|s| s.token.is_keyword("like") || s.token.is_keyword("in"))
                .unwrap_or(false);
        if negated {
            self.advance();
        }
        let negate = |e: Expr| {
            if negated {
                Expr::Not(Box::new(e))
            } else {
                e
            }
        };
        if self.at_keyword("like") {
            self.advance();
            let pattern = match self.advance() {
                Token::Str(s) => s,
                other => {
                    return Err(self.error(format!("expected pattern string, found `{other}`")))
                }
            };
            let depth = self.level(depth + 1 + usize::from(negated))?;
            return Ok((negate(Expr::Like(Box::new(left), pattern)), depth));
        }
        if self.at_keyword("in") {
            self.advance();
            self.expect(&Token::LParen, "`(` after IN")?;
            let (first, mut deepest) = self.additive()?;
            let mut list = vec![first];
            while matches!(self.peek(), Token::Comma) {
                self.advance();
                let (item, d) = self.additive()?;
                deepest = deepest.max(d);
                list.push(item);
            }
            self.expect(&Token::RParen, "`)` closing IN list")?;
            let depth = self.level(depth.max(deepest) + 1 + usize::from(negated))?;
            return Ok((negate(Expr::In(Box::new(left), list)), depth));
        }
        if negated {
            return Err(self.error("expected LIKE or IN after NOT"));
        }
        // Comparison
        let op = match self.peek() {
            Token::Eq => Some(CmpOp::Eq),
            Token::Ne => Some(CmpOp::Ne),
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let (right, d) = self.additive()?;
            let depth = self.level(depth.max(d) + 1)?;
            return Ok((Expr::Cmp(op, Box::new(left), Box::new(right)), depth));
        }
        Ok((left, depth))
    }

    fn additive(&mut self) -> Result<(Expr, usize)> {
        let (mut left, mut depth) = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => ArithOp::Add,
                Token::Minus => ArithOp::Sub,
                _ => break,
            };
            self.advance();
            let (right, d) = self.multiplicative()?;
            depth = self.level(depth.max(d) + 1)?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn multiplicative(&mut self) -> Result<(Expr, usize)> {
        let (mut left, mut depth) = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => ArithOp::Mul,
                Token::Slash => ArithOp::Div,
                Token::Percent => ArithOp::Mod,
                _ => break,
            };
            self.advance();
            let (right, d) = self.unary()?;
            depth = self.level(depth.max(d) + 1)?;
            left = Expr::Arith(op, Box::new(left), Box::new(right));
        }
        Ok((left, depth))
    }

    fn unary(&mut self) -> Result<(Expr, usize)> {
        let mut negations = 0;
        while matches!(self.peek(), Token::Minus) {
            self.advance();
            negations += 1;
        }
        let (mut e, depth) = self.primary()?;
        let depth = self.level(depth + negations)?;
        for _ in 0..negations {
            e = Expr::Neg(Box::new(e));
        }
        Ok((e, depth))
    }

    /// A leaf, a parenthesized expression or a call. Each lives in a
    /// function of its own, so the frame every nesting level stacks holds
    /// none of their locals.
    fn primary(&mut self) -> Result<(Expr, usize)> {
        match self.peek() {
            Token::LParen => self.parenthesized(),
            Token::Ident(_)
                if self.tokens.get(self.pos + 1).map(|s| &s.token) == Some(&Token::LParen) =>
            {
                self.call()
            }
            _ => self.leaf(),
        }
    }

    fn parenthesized(&mut self) -> Result<(Expr, usize)> {
        self.advance(); // (
        let (e, depth) = self.nested()?;
        self.expect(&Token::RParen, "`)`")?;
        Ok((e, self.level(depth + 1)?))
    }

    #[inline(never)]
    fn call(&mut self) -> Result<(Expr, usize)> {
        let Token::Ident(name) = self.advance() else {
            unreachable!()
        };
        self.advance(); // (
        let (mut args, mut deepest) = (Vec::new(), 0);
        if !matches!(self.peek(), Token::RParen) {
            loop {
                let (arg, d) = self.nested()?;
                deepest = deepest.max(d);
                args.push(arg);
                if !matches!(self.peek(), Token::Comma) {
                    break;
                }
                self.advance();
            }
        }
        self.expect(&Token::RParen, "`)` closing function call")?;
        Ok((Expr::Call(name, args), self.level(deepest + 1)?))
    }

    #[inline(never)]
    fn leaf(&mut self) -> Result<(Expr, usize)> {
        let leaf = match self.peek().clone() {
            Token::Int(i) => Expr::lit(i),
            Token::Float(f) => Expr::lit(f),
            Token::Str(s) => Expr::lit(s.as_str()),
            Token::Ident(name) if name.eq_ignore_ascii_case("null") => Expr::Literal(Value::Null),
            Token::Ident(name) if name.eq_ignore_ascii_case("true") => Expr::lit(true),
            Token::Ident(name) if name.eq_ignore_ascii_case("false") => Expr::lit(false),
            Token::Ident(_) => return Ok((Expr::Column(self.column_ref()?), 1)),
            other => return Err(self.error(format!("expected expression, found `{other}`"))),
        };
        self.advance();
        Ok((leaf, 1))
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
}
