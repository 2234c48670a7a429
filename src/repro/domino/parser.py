"""Recursive-descent parser for the Domino language subset.

Grammar (informal)::

    program        := struct_decl (register_decl)* func_decl
    struct_decl    := 'struct' IDENT '{' ('int' IDENT ';')+ '}' ';'
    register_decl  := 'int' IDENT ('[' INT ']')? ('=' initializer)? ';'
    initializer    := INT | '{' INT (',' INT)* '}'
    func_decl      := 'void' IDENT '(' 'struct' IDENT IDENT ')' block
    block          := '{' stmt* '}'
    stmt           := if_stmt | local_decl | assign_stmt
    if_stmt        := 'if' '(' expr ')' block ('else' (block | if_stmt))?
    local_decl     := 'int' IDENT '=' expr ';'
    assign_stmt    := lvalue '=' expr ';'
    lvalue         := IDENT ('.' IDENT | '[' expr ']')?

Expressions use standard C precedence with the ternary operator at the
lowest level.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import DominoSyntaxError
from .ast_nodes import (
    Assign,
    BinaryExpr,
    CallExpr,
    Expr,
    If,
    IntLiteral,
    LocalDecl,
    LocalVar,
    PacketField,
    PacketStruct,
    Program,
    RegisterDecl,
    RegisterRef,
    Stmt,
    TernaryExpr,
    UnaryExpr,
)
from .builtins import BUILTINS
from .lexer import tokenize
from .tokens import Token, TokenType

# Binary operator precedence, loosest first. The ternary operator binds
# looser than all of these and is handled separately.
_PRECEDENCE_LEVELS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]


class Parser:
    """Parses a token stream into a :class:`Program` AST."""

    def __init__(self, tokens: List[Token], source_name: str = "<domino>"):
        self.tokens = tokens
        self.pos = 0
        self.source_name = source_name

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def _check(self, token_type: TokenType) -> bool:
        return self._peek().type is token_type

    def _match(self, token_type: TokenType) -> Optional[Token]:
        if self._check(token_type):
            return self._advance()
        return None

    def _expect(self, token_type: TokenType, what: str = "") -> Token:
        token = self._peek()
        if token.type is not token_type:
            expected = what or token_type.value
            raise DominoSyntaxError(
                f"expected {expected!r}, found {token.text!r}",
                token.line,
                token.column,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse the full token stream into a :class:`Program`."""
        struct = self._parse_struct_decl()
        registers: List[RegisterDecl] = []
        while self._check(TokenType.KW_INT):
            registers.append(self._parse_register_decl())
        func_name, param_name, body = self._parse_func_decl()
        self._expect(TokenType.EOF, "end of program")
        return Program(
            packet_struct=struct,
            registers=registers,
            body=body,
            func_name=func_name,
            packet_param=param_name,
            source_name=self.source_name,
        )

    def _parse_struct_decl(self) -> PacketStruct:
        start = self._expect(TokenType.KW_STRUCT)
        name = self._expect(TokenType.IDENT, "struct name").text
        self._expect(TokenType.LBRACE)
        fields: List[str] = []
        while not self._check(TokenType.RBRACE):
            self._expect(TokenType.KW_INT, "'int' field type")
            field_tok = self._expect(TokenType.IDENT, "field name")
            if field_tok.text in fields:
                raise DominoSyntaxError(
                    f"duplicate packet field {field_tok.text!r}",
                    field_tok.line,
                    field_tok.column,
                )
            fields.append(field_tok.text)
            self._expect(TokenType.SEMICOLON)
        self._expect(TokenType.RBRACE)
        self._expect(TokenType.SEMICOLON)
        if not fields:
            raise DominoSyntaxError(
                "packet struct must declare at least one field",
                start.line,
                start.column,
            )
        return PacketStruct(name=name, fields=fields, line=start.line)

    def _parse_register_decl(self) -> RegisterDecl:
        start = self._expect(TokenType.KW_INT)
        name = self._expect(TokenType.IDENT, "register name").text
        size = 1
        is_scalar = True
        if self._match(TokenType.LBRACKET):
            size_tok = self._expect(TokenType.INT_LITERAL, "array size")
            size = size_tok.value
            if size <= 0:
                raise DominoSyntaxError(
                    f"register array size must be positive, got {size}",
                    size_tok.line,
                    size_tok.column,
                )
            is_scalar = False
            self._expect(TokenType.RBRACKET)

        initial: List[int] = [0] * size
        if self._match(TokenType.ASSIGN):
            if self._match(TokenType.LBRACE):
                values: List[int] = []
                values.append(self._parse_signed_int())
                while self._match(TokenType.COMMA):
                    values.append(self._parse_signed_int())
                self._expect(TokenType.RBRACE)
                if len(values) == 1:
                    # C-style {0} broadcast used throughout the paper.
                    initial = values * size
                elif len(values) == size:
                    initial = values
                else:
                    raise DominoSyntaxError(
                        f"register {name!r}: initializer has {len(values)} "
                        f"entries but array size is {size}",
                        start.line,
                        start.column,
                    )
            else:
                value = self._parse_signed_int()
                initial = [value] * size
        self._expect(TokenType.SEMICOLON)
        return RegisterDecl(
            name=name,
            size=size,
            initial=tuple(initial),
            is_scalar=is_scalar,
            line=start.line,
        )

    def _parse_signed_int(self) -> int:
        negative = bool(self._match(TokenType.MINUS))
        token = self._expect(TokenType.INT_LITERAL, "integer")
        return -token.value if negative else token.value

    def _parse_func_decl(self):
        self._expect(TokenType.KW_VOID, "'void'")
        func_name = self._expect(TokenType.IDENT, "function name").text
        self._expect(TokenType.LPAREN)
        self._expect(TokenType.KW_STRUCT, "'struct'")
        self._expect(TokenType.IDENT, "struct name")
        param_name = self._expect(TokenType.IDENT, "parameter name").text
        self._expect(TokenType.RPAREN)
        body = self._parse_block(param_name)
        return func_name, param_name, body

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_block(self, param: str) -> List[Stmt]:
        self._expect(TokenType.LBRACE)
        statements: List[Stmt] = []
        while not self._check(TokenType.RBRACE):
            statements.append(self._parse_stmt(param))
        self._expect(TokenType.RBRACE)
        return statements

    def _parse_stmt(self, param: str) -> Stmt:
        if self._check(TokenType.KW_IF):
            return self._parse_if(param)
        if self._check(TokenType.KW_INT):
            return self._parse_local_decl(param)
        return self._parse_assign(param)

    def _parse_if(self, param: str) -> If:
        start = self._expect(TokenType.KW_IF)
        self._expect(TokenType.LPAREN)
        condition = self._parse_expr(param)
        self._expect(TokenType.RPAREN)
        then_body = self._parse_block(param)
        else_body: List[Stmt] = []
        if self._match(TokenType.KW_ELSE):
            if self._check(TokenType.KW_IF):
                else_body = [self._parse_if(param)]
            else:
                else_body = self._parse_block(param)
        return If(
            condition=condition,
            then_body=then_body,
            else_body=else_body,
            line=start.line,
            column=start.column,
        )

    def _parse_local_decl(self, param: str) -> LocalDecl:
        start = self._expect(TokenType.KW_INT)
        name = self._expect(TokenType.IDENT, "local variable name").text
        self._expect(TokenType.ASSIGN, "'=' (locals must be initialized)")
        value = self._parse_expr(param)
        self._expect(TokenType.SEMICOLON)
        return LocalDecl(name=name, value=value, line=start.line, column=start.column)

    def _parse_assign(self, param: str) -> Assign:
        target = self._parse_lvalue(param)
        eq = self._expect(TokenType.ASSIGN, "'='")
        value = self._parse_expr(param)
        self._expect(TokenType.SEMICOLON)
        return Assign(target=target, value=value, line=eq.line, column=eq.column)

    def _parse_lvalue(self, param: str) -> Expr:
        token = self._expect(TokenType.IDENT, "assignment target")
        if token.text == param and self._match(TokenType.DOT):
            field_tok = self._expect(TokenType.IDENT, "packet field")
            return PacketField(
                field_name=field_tok.text, line=token.line, column=token.column
            )
        if self._match(TokenType.LBRACKET):
            index = self._parse_expr(param)
            self._expect(TokenType.RBRACKET)
            return RegisterRef(
                register=token.text, index=index, line=token.line, column=token.column
            )
        # Bare identifier: a local variable or a scalar register; semantic
        # analysis disambiguates.
        return LocalVar(name=token.text, line=token.line, column=token.column)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _parse_expr(self, param: str) -> Expr:
        return self._parse_ternary(param)

    def _parse_ternary(self, param: str) -> Expr:
        condition = self._parse_binary(param, 0)
        if self._match(TokenType.QUESTION):
            if_true = self._parse_ternary(param)
            self._expect(TokenType.COLON)
            if_false = self._parse_ternary(param)
            return TernaryExpr(
                condition=condition,
                if_true=if_true,
                if_false=if_false,
                line=condition.line,
                column=condition.column,
            )
        return condition

    def _parse_binary(self, param: str, level: int) -> Expr:
        if level >= len(_PRECEDENCE_LEVELS):
            return self._parse_unary(param)
        ops = _PRECEDENCE_LEVELS[level]
        left = self._parse_binary(param, level + 1)
        while self._peek().text in ops and self._peek().type is not TokenType.IDENT:
            op_tok = self._advance()
            right = self._parse_binary(param, level + 1)
            left = BinaryExpr(
                op=op_tok.text,
                left=left,
                right=right,
                line=op_tok.line,
                column=op_tok.column,
            )
        return left

    def _parse_unary(self, param: str) -> Expr:
        token = self._peek()
        if token.type in (TokenType.NOT, TokenType.MINUS):
            self._advance()
            operand = self._parse_unary(param)
            return UnaryExpr(
                op=token.text, operand=operand, line=token.line, column=token.column
            )
        return self._parse_primary(param)

    def _parse_primary(self, param: str) -> Expr:
        token = self._peek()
        if token.type is TokenType.INT_LITERAL:
            self._advance()
            return IntLiteral(value=token.value, line=token.line, column=token.column)
        if token.type is TokenType.LPAREN:
            self._advance()
            inner = self._parse_expr(param)
            self._expect(TokenType.RPAREN)
            return inner
        if token.type is TokenType.IDENT:
            self._advance()
            # Packet field access: p.field
            if token.text == param and self._match(TokenType.DOT):
                field_tok = self._expect(TokenType.IDENT, "packet field")
                return PacketField(
                    field_name=field_tok.text, line=token.line, column=token.column
                )
            # Builtin call: hash2(a, b)
            if self._check(TokenType.LPAREN):
                if token.text not in BUILTINS:
                    raise DominoSyntaxError(
                        f"unknown function {token.text!r} (builtins: "
                        f"{sorted(BUILTINS)})",
                        token.line,
                        token.column,
                    )
                self._advance()
                args: List[Expr] = []
                if not self._check(TokenType.RPAREN):
                    args.append(self._parse_expr(param))
                    while self._match(TokenType.COMMA):
                        args.append(self._parse_expr(param))
                self._expect(TokenType.RPAREN)
                return CallExpr(
                    func=token.text, args=args, line=token.line, column=token.column
                )
            # Register array read: reg[idx]
            if self._match(TokenType.LBRACKET):
                index = self._parse_expr(param)
                self._expect(TokenType.RBRACKET)
                return RegisterRef(
                    register=token.text,
                    index=index,
                    line=token.line,
                    column=token.column,
                )
            # Bare identifier: local var or scalar register.
            return LocalVar(name=token.text, line=token.line, column=token.column)
        raise DominoSyntaxError(
            f"unexpected token {token.text!r} in expression", token.line, token.column
        )


def parse(source: str, source_name: str = "<domino>") -> Program:
    """Parse Domino source text into an AST :class:`Program`."""
    return Parser(tokenize(source), source_name).parse_program()
