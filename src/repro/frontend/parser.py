"""Recursive-descent parser for the HPF/Fortran 90D subset.

The parser turns the token stream produced by :mod:`repro.frontend.lexer` into
the AST defined in :mod:`repro.frontend.ast_nodes`.  It implements exactly the
language subset handled by the paper's compiler: Fortran 90 declarations, the
four HPF mapping directives, ``forall`` (statement and construct), array
assignment, ``where``, ``do``/``do while``/``if`` control flow, ``call``,
``print``, and full Fortran expression syntax with intrinsics.

Parsing is statement-oriented: logical source lines are tokenised, each
statement is classified by its leading keyword, and block constructs
(``do`` ... ``end do``, ``if`` ... ``end if``, ``forall`` ... ``end forall``,
``where`` ... ``end where``) are assembled with an explicit block stack.
"""

from __future__ import annotations

from typing import Optional

from . import ast_nodes as ast
from .errors import ParserError
from .intrinsics import is_intrinsic
from .lexer import Token, TokenType, iter_statements, tokenize
from .source import SourceFile

_TYPE_KEYWORDS = {"integer", "real", "double", "logical", "doubleprecision"}


class _Cursor:
    """A cursor over the tokens of a single statement."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    @property
    def line(self) -> int:
        if self.tokens:
            return self.tokens[min(self.pos, len(self.tokens) - 1)].line
        return 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        if idx < len(self.tokens):
            return self.tokens[idx]
        return None

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParserError("unexpected end of statement", self.line)
        self.pos += 1
        return tok

    def accept(self, type_: TokenType, value: str | None = None) -> Optional[Token]:
        tok = self.peek()
        if tok is None or tok.type is not type_:
            return None
        if value is not None and tok.value != value:
            return None
        self.pos += 1
        return tok

    def accept_name(self, *names: str) -> Optional[Token]:
        tok = self.peek()
        if tok is None or tok.type is not TokenType.NAME:
            return None
        if names and tok.value not in names:
            return None
        self.pos += 1
        return tok

    def expect(self, type_: TokenType, value: str | None = None) -> Token:
        tok = self.accept(type_, value)
        if tok is None:
            found = self.peek()
            expected = value if value is not None else type_.name
            got = repr(found.value) if found else "end of statement"
            raise ParserError(f"expected {expected!r}, found {got}", self.line)
        return tok

    def expect_name(self, *names: str) -> Token:
        tok = self.accept_name(*names)
        if tok is None:
            found = self.peek()
            got = repr(found.value) if found else "end of statement"
            raise ParserError(f"expected one of {names}, found {got}", self.line)
        return tok

    def remaining_values(self) -> list[str]:
        return [t.value for t in self.tokens[self.pos:]]


# ---------------------------------------------------------------------------
# Expression parsing (precedence climbing)
# ---------------------------------------------------------------------------


class ExpressionParser:
    """Parses Fortran expressions from a :class:`_Cursor`."""

    def __init__(self, cursor: _Cursor):
        self.c = cursor

    def parse(self) -> ast.Expr:
        return self._or_expr()

    # .OR. (lowest) -> .AND. -> .NOT. -> relational -> add -> mul -> unary -> power -> primary

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while True:
            tok = self.c.peek()
            if tok and tok.type is TokenType.OP and tok.value in (".or.", ".eqv.", ".neqv."):
                self.c.next()
                right = self._and_expr()
                left = ast.Logical(line=tok.line, op=tok.value, left=left, right=right)
            else:
                return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while True:
            tok = self.c.peek()
            if tok and tok.type is TokenType.OP and tok.value == ".and.":
                self.c.next()
                right = self._not_expr()
                left = ast.Logical(line=tok.line, op=".and.", left=left, right=right)
            else:
                return left

    def _not_expr(self) -> ast.Expr:
        tok = self.c.peek()
        if tok and tok.type is TokenType.OP and tok.value == ".not.":
            self.c.next()
            operand = self._not_expr()
            return ast.UnaryOp(line=tok.line, op=".not.", operand=operand)
        return self._relational()

    def _relational(self) -> ast.Expr:
        left = self._additive()
        tok = self.c.peek()
        if tok and tok.type is TokenType.OP and tok.value in ("==", "/=", "<", "<=", ">", ">="):
            self.c.next()
            right = self._additive()
            return ast.Compare(line=tok.line, op=tok.value, left=left, right=right)
        return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            tok = self.c.peek()
            if tok and tok.type is TokenType.OP and tok.value in ("+", "-"):
                self.c.next()
                right = self._multiplicative()
                left = ast.BinOp(line=tok.line, op=tok.value, left=left, right=right)
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            tok = self.c.peek()
            if tok and tok.type is TokenType.OP and tok.value in ("*", "/"):
                self.c.next()
                right = self._unary()
                left = ast.BinOp(line=tok.line, op=tok.value, left=left, right=right)
            else:
                return left

    def _unary(self) -> ast.Expr:
        tok = self.c.peek()
        if tok and tok.type is TokenType.OP and tok.value in ("+", "-"):
            self.c.next()
            operand = self._unary()
            return ast.UnaryOp(line=tok.line, op=tok.value, operand=operand)
        return self._power()

    def _power(self) -> ast.Expr:
        base = self._primary()
        tok = self.c.peek()
        if tok and tok.type is TokenType.OP and tok.value == "**":
            self.c.next()
            exponent = self._unary()  # right-associative, unary binds the exponent
            return ast.BinOp(line=tok.line, op="**", left=base, right=exponent)
        return base

    def _primary(self) -> ast.Expr:
        tok = self.c.peek()
        if tok is None:
            raise ParserError("unexpected end of expression", self.c.line)

        if tok.type is TokenType.INTEGER:
            self.c.next()
            return ast.Num(line=tok.line, value=float(int(tok.value)), is_int=True)
        if tok.type is TokenType.REAL:
            self.c.next()
            return ast.Num(line=tok.line, value=float(tok.value), is_int=False)
        if tok.type is TokenType.STRING:
            self.c.next()
            return ast.Str(line=tok.line, value=tok.value)
        if tok.type is TokenType.OP and tok.value == "(":
            self.c.next()
            inner = self.parse()
            self.c.expect(TokenType.OP, ")")
            return inner
        if tok.type is TokenType.NAME:
            if tok.value == ".true.":
                self.c.next()
                return ast.LogicalLit(line=tok.line, value=True)
            if tok.value == ".false.":
                self.c.next()
                return ast.LogicalLit(line=tok.line, value=False)
            self.c.next()
            name = tok.value
            nxt = self.c.peek()
            if nxt and nxt.type is TokenType.OP and nxt.value == "(":
                self.c.next()
                args = self._argument_list()
                self.c.expect(TokenType.OP, ")")
                if is_intrinsic(name):
                    return ast.FuncCall(line=tok.line, name=name, args=args)
                return ast.ArrayRef(line=tok.line, name=name, indices=args)
            return ast.Var(line=tok.line, name=name)

        raise ParserError(f"unexpected token {tok.value!r} in expression", tok.line)

    def _argument_list(self) -> list[ast.Expr]:
        """Parse a comma-separated list of subscripts/arguments, handling sections."""
        args: list[ast.Expr] = []
        closing = self.c.peek()
        if closing and closing.type is TokenType.OP and closing.value == ")":
            return args
        while True:
            args.append(self._subscript())
            if self.c.accept(TokenType.OP, ","):
                continue
            return args

    def _subscript(self) -> ast.Expr:
        """Parse one subscript, which may be a scalar expression or a section lo:hi:stride."""
        tok = self.c.peek()
        line = tok.line if tok else self.c.line

        # Leading ':' means an unbounded lower limit (":", ":n", "::2").
        lo: Optional[ast.Expr] = None
        if not (tok and tok.type is TokenType.OP and tok.value == ":"):
            lo = self.parse()
            tok = self.c.peek()
            if not (tok and tok.type is TokenType.OP and tok.value == ":"):
                return lo  # plain scalar subscript / argument

        # We are looking at ':': this is a section.
        self.c.expect(TokenType.OP, ":")
        hi: Optional[ast.Expr] = None
        stride: Optional[ast.Expr] = None
        tok = self.c.peek()
        if tok and not (tok.type is TokenType.OP and tok.value in (",", ")", ":")):
            hi = self.parse()
        if self.c.accept(TokenType.OP, ":"):
            tok = self.c.peek()
            if tok and not (tok.type is TokenType.OP and tok.value in (",", ")")):
                stride = self.parse()
        return ast.Section(line=line, lo=lo, hi=hi, stride=stride)


# ---------------------------------------------------------------------------
# Statement classification helpers
# ---------------------------------------------------------------------------


def _starts_with(tokens: list[Token], *names: str) -> bool:
    for i, name in enumerate(names):
        if i >= len(tokens):
            return False
        tok = tokens[i]
        if tok.type is not TokenType.NAME or tok.value != name:
            return False
    return True


def _is_assignment(tokens: list[Token]) -> bool:
    """True if the statement is an assignment: NAME [ ( ... ) ] = expr."""
    if not tokens or tokens[0].type is not TokenType.NAME:
        return False
    i = 1
    depth = 0
    if i < len(tokens) and tokens[i].type is TokenType.OP and tokens[i].value == "(":
        depth = 1
        i += 1
        while i < len(tokens) and depth > 0:
            if tokens[i].type is TokenType.OP and tokens[i].value == "(":
                depth += 1
            elif tokens[i].type is TokenType.OP and tokens[i].value == ")":
                depth -= 1
            i += 1
    return i < len(tokens) and tokens[i].type is TokenType.OP and tokens[i].value == "="


# ---------------------------------------------------------------------------
# The parser proper
# ---------------------------------------------------------------------------


class Parser:
    """Parses a complete HPF/Fortran 90D program unit."""

    def __init__(self, source: str | SourceFile, name: str = "<string>"):
        self.source = source if isinstance(source, SourceFile) else SourceFile(text=source, name=name)
        self.tokens = tokenize(self.source)
        self.statements = list(iter_statements(self.tokens))

    # -- public API ---------------------------------------------------------

    def parse(self) -> ast.Program:
        program = ast.Program(line=1)
        # Block stack: each entry is (kind, node, current_body_list)
        stack: list[tuple[str, ast.Stmt, list[ast.Stmt]]] = []
        seen_executable = False

        def emit(stmt: ast.Stmt) -> None:
            nonlocal seen_executable
            if stack:
                stack[-1][2].append(stmt)
            else:
                if isinstance(stmt, ast.Directive):
                    program.directives.append(stmt)
                elif isinstance(stmt, (ast.Declaration, ast.ParameterStmt)) and not seen_executable:
                    program.declarations.append(stmt)
                else:
                    seen_executable = True
                    program.body.append(stmt)

        for stmt_tokens in self.statements:
            cursor = _Cursor(stmt_tokens)
            first = stmt_tokens[0]

            # ---------------- directives ----------------
            if first.type is TokenType.DIRECTIVE:
                directive = self._parse_directive(cursor)
                if directive is not None:
                    emit(directive)
                continue

            # ---------------- program / end -------------
            if _starts_with(stmt_tokens, "program"):
                cursor.next()
                name_tok = cursor.accept(TokenType.NAME)
                program.name = name_tok.value if name_tok else "main"
                program.line = first.line
                continue
            if _starts_with(stmt_tokens, "implicit"):
                continue  # IMPLICIT NONE accepted and ignored
            if _starts_with(stmt_tokens, "end"):
                handled = self._handle_end(cursor, stack)
                if handled == "program":
                    break
                continue
            if _starts_with(stmt_tokens, "enddo"):
                self._close_block(stack, "do", first.line)
                continue
            if _starts_with(stmt_tokens, "endif"):
                self._close_block(stack, "if", first.line)
                continue

            # ---------------- declarations ----------------
            if first.type is TokenType.NAME and first.value in _TYPE_KEYWORDS and not _is_assignment(stmt_tokens):
                emit(self._parse_declaration(cursor))
                continue
            if _starts_with(stmt_tokens, "dimension"):
                emit(self._parse_dimension(cursor))
                continue
            if _starts_with(stmt_tokens, "parameter"):
                emit(self._parse_parameter(cursor))
                continue

            # ---------------- block constructs ----------------
            if _starts_with(stmt_tokens, "do"):
                node = self._parse_do_header(cursor)
                emit(node)
                stack.append(("do", node, node.body))
                continue

            if _starts_with(stmt_tokens, "else", "if") or _starts_with(stmt_tokens, "elseif"):
                self._parse_else_if(cursor, stack)
                continue
            if _starts_with(stmt_tokens, "else"):
                self._parse_else(cursor, stack)
                continue
            if _starts_with(stmt_tokens, "elsewhere"):
                self._parse_elsewhere(stack, first.line)
                continue

            if _starts_with(stmt_tokens, "if"):
                node, is_block = self._parse_if(cursor)
                emit(node)
                if is_block:
                    stack.append(("if", node, node.branches[-1][1]))
                continue

            if _starts_with(stmt_tokens, "forall"):
                node, is_construct = self._parse_forall(cursor)
                emit(node)
                if is_construct:
                    stack.append(("forall", node, node.body))  # type: ignore[arg-type]
                continue

            if _starts_with(stmt_tokens, "where"):
                node, is_construct = self._parse_where(cursor)
                emit(node)
                if is_construct:
                    stack.append(("where", node, node.body))  # type: ignore[arg-type]
                continue

            # ---------------- simple statements ----------------
            if _starts_with(stmt_tokens, "call"):
                emit(self._parse_call(cursor))
                continue
            if _starts_with(stmt_tokens, "print") or _starts_with(stmt_tokens, "write"):
                emit(self._parse_print(cursor))
                continue
            if _starts_with(stmt_tokens, "exit"):
                emit(ast.ExitStmt(line=first.line))
                continue
            if _starts_with(stmt_tokens, "cycle"):
                emit(ast.CycleStmt(line=first.line))
                continue
            if _starts_with(stmt_tokens, "stop"):
                emit(ast.StopStmt(line=first.line))
                continue
            if _starts_with(stmt_tokens, "continue"):
                emit(ast.ContinueStmt(line=first.line))
                continue

            if _is_assignment(stmt_tokens):
                emit(self._parse_assignment(cursor))
                continue

            raise ParserError(
                f"unrecognised statement starting with {first.value!r}", first.line
            )

        if stack:
            kind, node, _ = stack[-1]
            raise ParserError(f"unterminated '{kind}' construct", node.line)
        return program

    # -- end handling ---------------------------------------------------------

    def _handle_end(self, cursor: _Cursor, stack: list) -> str:
        cursor.next()  # consume 'end'
        what = cursor.accept(TokenType.NAME)
        line = cursor.line
        if what is None:
            # Bare END: closes the innermost construct, or the program.
            if stack:
                stack.pop()
                return "block"
            return "program"
        if what.value == "program":
            return "program"
        kind_map = {"do": "do", "if": "if", "forall": "forall", "where": "where"}
        kind = kind_map.get(what.value)
        if kind is None:
            raise ParserError(f"unsupported 'end {what.value}'", line)
        self._close_block(stack, kind, line)
        return "block"

    @staticmethod
    def _close_block(stack: list, kind: str, line: int) -> None:
        if not stack or stack[-1][0] != kind:
            found = stack[-1][0] if stack else "nothing"
            raise ParserError(f"'end {kind}' does not match open construct ({found})", line)
        stack.pop()

    # -- declarations ---------------------------------------------------------

    def _parse_declaration(self, cursor: _Cursor) -> ast.Declaration:
        line = cursor.line
        type_tok = cursor.next()
        type_name = type_tok.value
        if type_name == "double" or type_name == "doubleprecision":
            cursor.accept_name("precision")
            type_name = "double"

        attributes: list[str] = []
        dimension: list[ast.DimSpec] = []

        # attribute list: , parameter , dimension(...) ... ::
        while cursor.accept(TokenType.OP, ","):
            attr = cursor.expect(TokenType.NAME)
            if attr.value == "dimension":
                cursor.expect(TokenType.OP, "(")
                dimension = self._parse_dim_specs(cursor)
                cursor.expect(TokenType.OP, ")")
                attributes.append("dimension")
            else:
                attributes.append(attr.value)

        cursor.accept(TokenType.OP, "::")

        entities: list[ast.DeclEntity] = []
        while not cursor.at_end():
            name_tok = cursor.expect(TokenType.NAME)
            dims: list[ast.DimSpec] = []
            if cursor.accept(TokenType.OP, "("):
                dims = self._parse_dim_specs(cursor)
                cursor.expect(TokenType.OP, ")")
            init: Optional[ast.Expr] = None
            if cursor.accept(TokenType.OP, "="):
                init = ExpressionParser(cursor).parse()
            entities.append(ast.DeclEntity(name=name_tok.value, dims=dims, init=init))
            if not cursor.accept(TokenType.OP, ","):
                break

        return ast.Declaration(
            line=line,
            type_name=type_name,
            attributes=attributes,
            dimension=dimension,
            entities=entities,
        )

    def _parse_dim_specs(self, cursor: _Cursor) -> list[ast.DimSpec]:
        specs: list[ast.DimSpec] = []
        while True:
            tok = cursor.peek()
            if tok and tok.type is TokenType.OP and tok.value == "*":
                cursor.next()
                specs.append(ast.DimSpec(lower=None, upper=ast.Num(value=-1.0, is_int=True)))
            else:
                first = ExpressionParser(cursor).parse()
                if cursor.accept(TokenType.OP, ":"):
                    second = ExpressionParser(cursor).parse()
                    specs.append(ast.DimSpec(lower=first, upper=second))
                else:
                    specs.append(ast.DimSpec(lower=None, upper=first))
            if not cursor.accept(TokenType.OP, ","):
                return specs

    def _parse_dimension(self, cursor: _Cursor) -> ast.Declaration:
        line = cursor.line
        cursor.next()  # 'dimension'
        entities: list[ast.DeclEntity] = []
        while not cursor.at_end():
            name_tok = cursor.expect(TokenType.NAME)
            cursor.expect(TokenType.OP, "(")
            dims = self._parse_dim_specs(cursor)
            cursor.expect(TokenType.OP, ")")
            entities.append(ast.DeclEntity(name=name_tok.value, dims=dims))
            if not cursor.accept(TokenType.OP, ","):
                break
        return ast.Declaration(line=line, type_name="real", entities=entities)

    def _parse_parameter(self, cursor: _Cursor) -> ast.ParameterStmt:
        line = cursor.line
        cursor.next()  # 'parameter'
        cursor.expect(TokenType.OP, "(")
        assignments: list[tuple[str, ast.Expr]] = []
        while True:
            name_tok = cursor.expect(TokenType.NAME)
            cursor.expect(TokenType.OP, "=")
            value = ExpressionParser(cursor).parse()
            assignments.append((name_tok.value, value))
            if not cursor.accept(TokenType.OP, ","):
                break
        cursor.expect(TokenType.OP, ")")
        return ast.ParameterStmt(line=line, assignments=assignments)

    # -- HPF directives -------------------------------------------------------

    def _parse_directive(self, cursor: _Cursor) -> Optional[ast.Directive]:
        line = cursor.line
        cursor.next()  # DIRECTIVE sentinel
        keyword = cursor.accept(TokenType.NAME)
        if keyword is None:
            return None
        kw = keyword.value

        if kw == "processors":
            name_tok = cursor.expect(TokenType.NAME)
            shape: list[ast.Expr] = []
            if cursor.accept(TokenType.OP, "("):
                while True:
                    shape.append(ExpressionParser(cursor).parse())
                    if not cursor.accept(TokenType.OP, ","):
                        break
                cursor.expect(TokenType.OP, ")")
            return ast.ProcessorsDirective(line=line, name=name_tok.value, shape=shape)

        if kw == "template":
            name_tok = cursor.expect(TokenType.NAME)
            cursor.expect(TokenType.OP, "(")
            shape = []
            while True:
                shape.append(ExpressionParser(cursor).parse())
                if not cursor.accept(TokenType.OP, ","):
                    break
            cursor.expect(TokenType.OP, ")")
            return ast.TemplateDirective(line=line, name=name_tok.value, shape=shape)

        if kw == "align":
            alignee = cursor.expect(TokenType.NAME).value
            dummies: list[str] = []
            if cursor.accept(TokenType.OP, "("):
                while True:
                    tok = cursor.peek()
                    if tok and tok.type is TokenType.OP and tok.value == "*":
                        cursor.next()
                        dummies.append("*")
                    else:
                        dummies.append(cursor.expect(TokenType.NAME).value)
                    if not cursor.accept(TokenType.OP, ","):
                        break
                cursor.expect(TokenType.OP, ")")
            cursor.expect_name("with")
            target = cursor.expect(TokenType.NAME).value
            subscripts: list[Optional[ast.Expr]] = []
            if cursor.accept(TokenType.OP, "("):
                while True:
                    tok = cursor.peek()
                    if tok and tok.type is TokenType.OP and tok.value == "*":
                        cursor.next()
                        subscripts.append(None)
                    else:
                        subscripts.append(ExpressionParser(cursor).parse())
                    if not cursor.accept(TokenType.OP, ","):
                        break
                cursor.expect(TokenType.OP, ")")
            return ast.AlignDirective(
                line=line,
                alignee=alignee,
                source_dummies=dummies,
                target=target,
                target_subscripts=subscripts,
            )

        if kw == "distribute":
            target = cursor.expect(TokenType.NAME).value
            formats: list[tuple[str, Optional[ast.Expr]]] = []
            cursor.expect(TokenType.OP, "(")
            while True:
                tok = cursor.peek()
                if tok and tok.type is TokenType.OP and tok.value == "*":
                    cursor.next()
                    formats.append(("*", None))
                else:
                    fmt = cursor.expect_name("block", "cyclic").value
                    arg: Optional[ast.Expr] = None
                    if cursor.accept(TokenType.OP, "("):
                        arg = ExpressionParser(cursor).parse()
                        cursor.expect(TokenType.OP, ")")
                    formats.append((fmt, arg))
                if not cursor.accept(TokenType.OP, ","):
                    break
            cursor.expect(TokenType.OP, ")")
            onto: Optional[str] = None
            if cursor.accept_name("onto"):
                onto = cursor.expect(TokenType.NAME).value
            return ast.DistributeDirective(line=line, target=target, dist_formats=formats, onto=onto)

        # Unknown directive (e.g. INDEPENDENT): tolerated, ignored.
        return None

    # -- executable statements -------------------------------------------------

    def _parse_assignment(self, cursor: _Cursor) -> ast.Assignment:
        line = cursor.line
        target = ExpressionParser(cursor)._primary()
        if not isinstance(target, (ast.Var, ast.ArrayRef, ast.FuncCall)):
            raise ParserError("invalid assignment target", line)
        if isinstance(target, ast.FuncCall):
            # e.g. assignment to something the lexer thought was an intrinsic name
            target = ast.ArrayRef(line=target.line, name=target.name, indices=target.args)
        cursor.expect(TokenType.OP, "=")
        value = ExpressionParser(cursor).parse()
        if not cursor.at_end():
            raise ParserError(
                f"trailing tokens after assignment: {' '.join(cursor.remaining_values())}", line
            )
        return ast.Assignment(line=line, target=target, value=value)

    def _parse_do_header(self, cursor: _Cursor):
        line = cursor.line
        cursor.next()  # 'do'
        if cursor.accept_name("while"):
            cursor.expect(TokenType.OP, "(")
            cond = ExpressionParser(cursor).parse()
            cursor.expect(TokenType.OP, ")")
            return ast.DoWhile(line=line, cond=cond)
        var = cursor.expect(TokenType.NAME).value
        cursor.expect(TokenType.OP, "=")
        start = ExpressionParser(cursor).parse()
        cursor.expect(TokenType.OP, ",")
        end = ExpressionParser(cursor).parse()
        step: Optional[ast.Expr] = None
        if cursor.accept(TokenType.OP, ","):
            step = ExpressionParser(cursor).parse()
        return ast.DoLoop(line=line, var=var, start=start, end=end, step=step)

    def _parse_if(self, cursor: _Cursor) -> tuple[ast.IfBlock, bool]:
        line = cursor.line
        cursor.next()  # 'if'
        cursor.expect(TokenType.OP, "(")
        cond = self._parse_balanced_expr(cursor)
        node = ast.IfBlock(line=line)
        if cursor.accept_name("then"):
            node.branches.append((cond, []))
            return node, True
        # single-statement logical IF: parse the rest of the line as one statement
        inner = self._parse_inline_statement(cursor)
        node.branches.append((cond, [inner]))
        return node, False

    def _parse_balanced_expr(self, cursor: _Cursor) -> ast.Expr:
        """Parse an expression terminated by the matching ')'. Assumes '(' consumed."""
        expr = ExpressionParser(cursor).parse()
        cursor.expect(TokenType.OP, ")")
        return expr

    def _parse_inline_statement(self, cursor: _Cursor) -> ast.Stmt:
        """Parse the trailing statement of a single-line IF."""
        tok = cursor.peek()
        if tok is None:
            raise ParserError("missing statement after IF (...)", cursor.line)
        if tok.type is TokenType.NAME and tok.value == "call":
            return self._parse_call(cursor)
        if tok.type is TokenType.NAME and tok.value == "print":
            return self._parse_print(cursor)
        if tok.type is TokenType.NAME and tok.value == "exit":
            cursor.next()
            return ast.ExitStmt(line=tok.line)
        if tok.type is TokenType.NAME and tok.value == "cycle":
            cursor.next()
            return ast.CycleStmt(line=tok.line)
        if tok.type is TokenType.NAME and tok.value == "stop":
            cursor.next()
            return ast.StopStmt(line=tok.line)
        return self._parse_assignment(cursor)

    def _parse_else_if(self, cursor: _Cursor, stack: list) -> None:
        line = cursor.line
        first = cursor.next()  # 'else' or 'elseif'
        if first.value == "else":
            cursor.expect_name("if")
        cursor.expect(TokenType.OP, "(")
        cond = self._parse_balanced_expr(cursor)
        cursor.accept_name("then")
        if not stack or stack[-1][0] != "if":
            raise ParserError("'else if' outside of an IF construct", line)
        kind, node, _ = stack.pop()
        assert isinstance(node, ast.IfBlock)
        new_body: list[ast.Stmt] = []
        node.branches.append((cond, new_body))
        stack.append((kind, node, new_body))

    def _parse_else(self, cursor: _Cursor, stack: list) -> None:
        line = cursor.line
        cursor.next()
        if not stack or stack[-1][0] != "if":
            raise ParserError("'else' outside of an IF construct", line)
        kind, node, _ = stack.pop()
        assert isinstance(node, ast.IfBlock)
        stack.append((kind, node, node.else_body))

    def _parse_elsewhere(self, stack: list, line: int) -> None:
        if not stack or stack[-1][0] != "where":
            raise ParserError("'elsewhere' outside of a WHERE construct", line)
        kind, node, _ = stack.pop()
        assert isinstance(node, ast.WhereStmt)
        stack.append((kind, node, node.elsewhere))

    def _parse_forall(self, cursor: _Cursor) -> tuple[ast.ForallStmt, bool]:
        line = cursor.line
        cursor.next()  # 'forall'
        cursor.expect(TokenType.OP, "(")
        triplets: list[ast.ForallTriplet] = []
        mask: Optional[ast.Expr] = None
        while True:
            # A control is  name = lo : hi [: step]; anything else is the mask.
            tok = cursor.peek()
            nxt = cursor.peek(1)
            if (
                tok is not None
                and tok.type is TokenType.NAME
                and nxt is not None
                and nxt.type is TokenType.OP
                and nxt.value == "="
            ):
                var = cursor.next().value
                cursor.next()  # '='
                lo = ExpressionParser(cursor).parse()
                cursor.expect(TokenType.OP, ":")
                hi = ExpressionParser(cursor).parse()
                step: Optional[ast.Expr] = None
                if cursor.accept(TokenType.OP, ":"):
                    step = ExpressionParser(cursor).parse()
                triplets.append(ast.ForallTriplet(var=var, lo=lo, hi=hi, step=step))
            else:
                mask = ExpressionParser(cursor).parse()
            if cursor.accept(TokenType.OP, ","):
                continue
            break
        cursor.expect(TokenType.OP, ")")
        node = ast.ForallStmt(line=line, triplets=triplets, mask=mask)
        if cursor.at_end():
            return node, True  # construct form: body statements follow until END FORALL
        body_stmt = self._parse_assignment(cursor)
        node.body.append(body_stmt)
        return node, False

    def _parse_where(self, cursor: _Cursor) -> tuple[ast.WhereStmt, bool]:
        line = cursor.line
        cursor.next()  # 'where'
        cursor.expect(TokenType.OP, "(")
        mask = self._parse_balanced_expr(cursor)
        node = ast.WhereStmt(line=line, mask=mask)
        if cursor.at_end():
            return node, True
        node.body.append(self._parse_assignment(cursor))
        return node, False

    def _parse_call(self, cursor: _Cursor) -> ast.CallStmt:
        line = cursor.line
        cursor.next()  # 'call'
        name = cursor.expect(TokenType.NAME).value
        args: list[ast.Expr] = []
        if cursor.accept(TokenType.OP, "("):
            tok = cursor.peek()
            if not (tok and tok.type is TokenType.OP and tok.value == ")"):
                while True:
                    args.append(ExpressionParser(cursor).parse())
                    if not cursor.accept(TokenType.OP, ","):
                        break
            cursor.expect(TokenType.OP, ")")
        return ast.CallStmt(line=line, name=name, args=args)

    def _parse_print(self, cursor: _Cursor) -> ast.PrintStmt:
        line = cursor.line
        keyword = cursor.next()  # 'print' or 'write'
        items: list[ast.Expr] = []
        if keyword.value == "print":
            cursor.expect(TokenType.OP, "*")
            if not cursor.accept(TokenType.OP, ","):
                return ast.PrintStmt(line=line)
        else:  # write (*,*) ...
            cursor.expect(TokenType.OP, "(")
            cursor.expect(TokenType.OP, "*")
            cursor.expect(TokenType.OP, ",")
            cursor.expect(TokenType.OP, "*")
            cursor.expect(TokenType.OP, ")")
            cursor.accept(TokenType.OP, ",")
        while not cursor.at_end():
            items.append(ExpressionParser(cursor).parse())
            if not cursor.accept(TokenType.OP, ","):
                break
        return ast.PrintStmt(line=line, items=items)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def parse_source(source: str | SourceFile, name: str = "<string>") -> ast.Program:
    """Parse HPF/Fortran 90D source text (or an already pre-processed
    :class:`SourceFile`, whose own name then wins) into a :class:`Program`
    AST."""
    return Parser(source, name=name).parse()


def parse_expression(text: str) -> ast.Expr:
    """Parse a single Fortran expression (used in tests and the REPL-style tools)."""
    tokens = [t for t in tokenize(text) if t.type not in (TokenType.NEWLINE, TokenType.EOF)]
    cursor = _Cursor(tokens)
    expr = ExpressionParser(cursor).parse()
    if not cursor.at_end():
        raise ParserError(f"trailing tokens in expression: {' '.join(cursor.remaining_values())}")
    return expr
