"""Self-contained token/scope frontend for deeplint.

Builds the TUModel (model.py) from a real token stream — comments,
strings and preprocessor lines stripped, multi-line declarations seen as
one token sequence — plus a lightweight structural parse: namespace/class
scopes, member declarations (mutexes, member types, CondVar->Mutex
bindings), and function definitions whose bodies are walked with a scope
stack tracking RAII MutexLock lifetimes and manual Lock()/Unlock() pairs.
It needs no compiler and no libclang.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

from cxxlex import tokenize
from model import (CallEvent, ClassInfo, DirectDispatch, FunctionModel,
                   LockEvent, StatusFact, TUModel, WaitEvent)

KEYWORDS_NOT_CALLS = frozenset((
    "if", "while", "for", "switch", "return", "sizeof", "alignof",
    "decltype", "catch", "throw", "new", "delete", "case", "do", "else",
    "static_assert", "defined", "typeid", "alignas", "noexcept",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "assert",
))

QUALIFIER_IDENTS = frozenset((
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "constexpr", "inline", "static", "virtual", "explicit", "friend",
    "throw", "try",
))

ANNOTATION_IDENTS = frozenset((
    "REQUIRES", "REQUIRES_SHARED", "EXCLUSIVE_LOCKS_REQUIRED", "ACQUIRE",
    "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "TRY_ACQUIRE",
    "EXCLUDES", "ASSERT_CAPABILITY", "RETURN_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "GUARDED_BY", "PT_GUARDED_BY",
    "CAPABILITY", "SCOPED_CAPABILITY", "DMX_TSA",
))

OPS_SUFFIXES = ("StorageMethodOps", "AttachmentTypeOps", "AttachmentOps")

# std:: primitives thread-safety analysis cannot see (mutex-discipline).
RAW_LOCK_PRIMITIVES = frozenset((
    "mutex", "recursive_mutex", "shared_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock",
))

# Annotations whose arguments name the lock a member Mutex guards.
GUARD_ANNOTATIONS = frozenset((
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
    "EXCLUSIVE_LOCKS_REQUIRED", "ACQUIRE", "RELEASE",
))


class _FuncDef:
    __slots__ = ("qual", "cls", "name", "line", "body", "entry_args",
                 "path")

    def __init__(self, qual, cls, name, line, body, entry_args, path):
        self.qual, self.cls, self.name = qual, cls, name
        self.line, self.body = line, body
        self.entry_args = entry_args  # list of REQUIRES arg token-lists
        self.path = path


class TokenFrontend:
    """Two-phase frontend: structural scan of every file first (so .cc
    bodies can resolve members declared in .h), then body analysis."""

    def __init__(self, config):
        self.config = config
        self.classes: dict[str, ClassInfo] = {}
        self.free_fn_ret: dict[tuple, str] = {}  # (path, name) -> ret type
        self._file_tokens = {}
        self._file_funcs = {}
        self._file_lines = {}
        self._file_mutexes = {}  # path -> [(line, cls, member mutex)]
        # path -> [(enclosing class or None, guard-annotation arg tokens)]
        self._file_guards = {}
        # (class, method) -> REQUIRES arg token-lists of its in-class
        # declaration, for an out-of-line definition that repeats none.
        self._proto_requires = {}

    # ---- public API ---------------------------------------------------

    def build(self, paths):
        paths = [str(p) for p in paths]
        for p in paths:
            text = Path(p).read_text(encoding="utf-8", errors="replace")
            self._file_lines[p] = text.splitlines()
            toks = tokenize(text)
            self._file_tokens[p] = toks
            self._file_funcs[p] = self._structural_scan(p, toks)
        models = []
        for p in paths:
            models.append(self._analyze_file(p))
        return models

    def raw_lines(self, path):
        return self._file_lines.get(str(path), [])

    # ---- phase 1: structure -------------------------------------------

    def _structural_scan(self, path, toks):
        """Collect classes/members and function-definition spans."""
        funcs = []
        scopes = []  # (kind, name) — kind in {"namespace","class","other"}
        i, n = 0, len(toks)
        while i < n:
            t = toks[i]
            if t.kind == "punct":
                if t.text == "{":
                    scopes.append(("other", None))
                elif t.text == "}":
                    if scopes:
                        scopes.pop()
                i += 1
                continue
            kind_here = scopes[-1][0] if scopes else "namespace"
            if kind_here == "other":
                i += 1
                continue
            if t.text == "namespace":
                j = i + 1
                name = None
                while j < n and toks[j].kind == "ident":
                    name = toks[j].text
                    j += 1
                if j < n and toks[j].text == "{":
                    scopes.append(("namespace", name))
                    i = j + 1
                    continue
                i = j
                continue
            if t.text in ("class", "struct", "union") and \
                    (i + 1 < n and toks[i + 1].kind == "ident"):
                j, cname = i + 1, None
                while j < n and toks[j].text not in ("{", ";", "("):
                    if toks[j].kind == "ident" and \
                            toks[j].text not in ("final", "public",
                                                 "private", "protected",
                                                 "CAPABILITY",
                                                 "SCOPED_CAPABILITY"):
                        if cname is None:
                            cname = toks[j].text
                    j += 1
                if j < n and toks[j].text == "{" and cname:
                    qual = self._class_qual(scopes, cname)
                    self.classes.setdefault(qual, ClassInfo(qual))
                    scopes.append(("class", qual))
                    i = j + 1
                    continue
                i = j + 1
                continue
            if t.text == "enum":
                j = i
                while j < n and toks[j].text not in ("{", ";"):
                    j += 1
                if j < n and toks[j].text == "{":
                    j = self._skip_balanced(toks, j, "{", "}")
                i = j + 1
                continue
            if t.text == "template":
                j = i + 1
                if j < n and toks[j].text == "<":
                    j = self._skip_angles(toks, j)
                i = j
                continue
            if t.text in ("using", "typedef", "extern", "friend"):
                while i < n and toks[i].text not in (";", "{"):
                    i += 1
                if i < n and toks[i].text == "{":  # extern "C" {
                    scopes.append(("namespace", None))
                i += 1
                continue
            if t.text in ("public", "private", "protected"):
                i += 2  # skip the ':'
                continue
            # General declaration at namespace/class scope.
            i = self._parse_decl(path, toks, i, scopes, funcs)
        return funcs

    def _class_qual(self, scopes, cname):
        for kind, name in reversed(scopes):
            if kind == "class":
                return f"{name}::{cname}"
        return cname

    def _parse_decl(self, path, toks, i, scopes, funcs):
        n = len(toks)
        start = i
        cls = None
        for kind, name in reversed(scopes):
            if kind == "class":
                cls = name
                break
        name_chain = None
        name_line = toks[i].line
        j = i
        while j < n:
            t = toks[j]
            if t.text == "operator" and name_chain is None:
                return self._skip_operator(toks, j)
            if t.text == ";":
                if cls is not None and name_chain is None:
                    self._record_member(path, cls, toks[start:j])
                elif cls is None and name_chain is None:
                    self._record_global(path, toks[start:j])
                return j + 1
            if t.text == "{" and name_chain is None:
                # Brace-initialized member: `CondVar cv_{&mu_};`
                k = self._skip_balanced(toks, j, "{", "}")
                if cls is not None:
                    self._record_member(path, cls, toks[start:j],
                                        init=toks[j + 1:k - 1])
                while k < n and toks[k].text != ";":
                    k += 1
                return k + 1
            if t.text == "(" and name_chain is None:
                # Candidate function: name chain just before the paren.
                chain = self._chain_before(toks, j, start)
                if chain is None:
                    j = self._skip_balanced(toks, j, "(", ")")
                    continue
                name_chain = chain
                name_line = toks[j - 1].line
                j = self._skip_balanced(toks, j, "(", ")")
                # Post-signature: qualifiers, annotations, ctor inits.
                entry_args = []
                while j < n:
                    t = toks[j]
                    if t.kind == "ident" and t.text in QUALIFIER_IDENTS:
                        j += 1
                        if j < n and toks[j].text == "(":
                            j = self._skip_balanced(toks, j, "(", ")")
                        continue
                    if t.kind == "ident" and t.text in ANNOTATION_IDENTS:
                        ann = t.text
                        j += 1
                        if j < n and toks[j].text == "(":
                            k = self._skip_balanced(toks, j, "(", ")")
                            if ann in ("REQUIRES", "REQUIRES_SHARED",
                                       "EXCLUSIVE_LOCKS_REQUIRED"):
                                entry_args.append(toks[j + 1:k - 1])
                            if ann in GUARD_ANNOTATIONS:
                                owner = "::".join(name_chain[:-1]) or cls
                                self._record_guard(path, owner,
                                                   toks[j + 1:k - 1])
                            j = k
                        continue
                    if t.kind == "ident":  # unknown macro / attr name
                        j += 1
                        if j < n and toks[j].text == "(":
                            j = self._skip_balanced(toks, j, "(", ")")
                        continue
                    if t.text == "->":  # trailing return type
                        j += 1
                        while j < n and (toks[j].kind == "ident" or
                                         toks[j].text in ("::", "*", "&",
                                                          "const")):
                            if j + 1 < n and toks[j + 1].text == "<":
                                j = self._skip_angles(toks, j + 1)
                            else:
                                j += 1
                        continue
                    if t.text == ":":  # ctor initializer list
                        j += 1
                        while j < n and toks[j].text not in ("{", ";"):
                            if toks[j].text == "(":
                                j = self._skip_balanced(toks, j, "(", ")")
                            elif toks[j].text == "{":
                                break
                            elif toks[j].text == "<":
                                j = self._skip_angles(toks, j)
                            elif toks[j].kind == "ident" and j + 1 < n and \
                                    toks[j + 1].text == "{":
                                j = self._skip_balanced(toks, j + 1,
                                                        "{", "}")
                            else:
                                j += 1
                        continue
                    if t.text == "=":
                        while j < n and toks[j].text != ";":
                            j += 1
                        return j + 1
                    if t.text == ";":
                        self._record_prototype(path, cls, name_chain,
                                               toks[start:j], entry_args)
                        return j + 1
                    if t.text == "{":
                        k = self._skip_balanced(toks, j, "{", "}")
                        self._record_function(path, cls, name_chain,
                                              name_line, toks[j + 1:k - 1],
                                              entry_args, toks[start:j],
                                              funcs)
                        return k
                    j += 1
                return j
            if t.text == "{":
                return self._skip_balanced(toks, j, "{", "}")
            if t.text == "=" and name_chain is None:
                while j < n and toks[j].text != ";":
                    if toks[j].text == "{":
                        j = self._skip_balanced(toks, j, "{", "}")
                    else:
                        j += 1
                if cls is not None:
                    self._record_member(path, cls, toks[start:j])
                elif cls is None:
                    self._record_global(path, toks[start:j])
                return j + 1
            j += 1
        return n

    def _skip_operator(self, toks, j):
        """Skip an operator declaration or definition starting at the
        `operator` token. Its symbol is part of the name: the `=` of
        `operator=` must not be read as an initializer, which would
        swallow every definition up to the next top-level `;`."""
        n = len(toks)
        k = j + 1
        if k + 1 < n and toks[k].text == "(" and toks[k + 1].text == ")":
            k += 2  # operator()
        while k < n and toks[k].text != "(":
            k += 1
        k = self._skip_balanced(toks, k, "(", ")")
        while k < n and toks[k].text not in (";", "{"):
            k += 1
        if k < n and toks[k].text == "{":
            return self._skip_balanced(toks, k, "{", "}")
        return k + 1

    def _chain_before(self, toks, paren, limit):
        """Name chain `A::B::name` ending right before toks[paren]."""
        j = paren - 1
        if j < limit or toks[j].kind != "ident":
            return None
        if toks[j].text in KEYWORDS_NOT_CALLS or \
                toks[j].text in ANNOTATION_IDENTS:
            return None
        chain = [toks[j].text]
        j -= 1
        if j >= limit and toks[j].text == "~":  # destructor
            chain[0] = "~" + chain[0]
            j -= 1
        while j - 1 >= limit and toks[j].text == "::" and \
                toks[j - 1].kind == "ident":
            chain.insert(0, toks[j - 1].text)
            j -= 2
        # `operator()` etc. are out of scope for the model.
        if "operator" in chain:
            return None
        return chain

    def _record_guard(self, path, cls, args):
        """A GUARDED_BY/REQUIRES/... argument list on a declaration whose
        class is `cls`; resolved to a lock id once every class is known."""
        if args:
            self._file_guards.setdefault(path, []).append((cls, args))

    def _record_member(self, path, cls, decl, init=None):
        info = self.classes.setdefault(cls, ClassInfo(cls))
        for k, t in enumerate(decl[:-1]):
            if t.text in GUARD_ANNOTATIONS and decl[k + 1].text == "(":
                e = self._skip_balanced(decl, k + 1, "(", ")")
                self._record_guard(path, cls, decl[k + 2:e - 1])
        # Find the member name: last ident before the annotation/initializer
        # boundary; everything before it is the type.
        idents = []
        for t in decl:
            if t.kind == "ident" and t.text in ANNOTATION_IDENTS:
                break
            if t.text in ("=", "[", "{"):
                break
            if t.kind == "ident" and t.text not in QUALIFIER_IDENTS:
                idents.append(t)
        if len(idents) < 2:
            return  # untyped / macro line
        name = idents[-1].text
        type_idents = [t.text for t in idents[:-1]]
        info.members[name] = tuple(type_idents)
        if "Mutex" in type_idents:
            info.mutexes.append(name)
            self._file_mutexes.setdefault(path, []).append(
                (idents[-1].line, cls, name))
        if "CondVar" in type_idents and init is not None:
            expr = [t.text for t in init if t.text not in ("&",)]
            if expr:
                info.cv_bound_to[name] = ".".join(
                    x for x in expr if x not in (".", "->", "::"))

    def _record_global(self, path, decl):
        idents = [t.text for t in decl
                  if t.kind == "ident" and t.text not in QUALIFIER_IDENTS]
        if len(idents) >= 2 and "Mutex" in idents[:-1]:
            g = self.classes.setdefault("<globals>", ClassInfo("<globals>"))
            g.mutexes.append(idents[-1])
            g.members[idents[-1]] = ("Mutex",)

    def _record_prototype(self, path, cls, chain, sig, entry_args):
        if cls is not None and len(chain) == 1 and entry_args:
            self._proto_requires[(cls, chain[0])] = entry_args
        if cls is None and len(chain) == 1:
            ret = [t.text for t in sig
                   if t.kind == "ident" and t.text not in QUALIFIER_IDENTS]
            if ret and ret[0] != chain[0]:
                self.free_fn_ret[(path, chain[0])] = ret[0]

    def _record_function(self, path, cls, chain, line, body, entry_args,
                         sig, funcs):
        if len(chain) > 1:
            cls = "::".join(chain[:-1])
        name = chain[-1]
        qual = f"{cls}::{name}" if cls else name
        if cls is None:
            ret = [t.text for t in sig
                   if t.kind == "ident" and t.text not in QUALIFIER_IDENTS]
            if ret and ret[0] != name:
                self.free_fn_ret[(path, name)] = ret[0]
        funcs.append(_FuncDef(qual, cls, name, line, body, entry_args,
                              path))

    # ---- phase 2: bodies ----------------------------------------------

    def _analyze_file(self, path):
        tu = TUModel(path)
        toks = self._file_tokens[path]
        self._scan_status_facts(path, toks, tu)
        self._scan_dispatch(toks, tu)
        self._scan_mutex_facts(path, toks, tu)
        tu.member_mutexes = self._file_mutexes.get(path, [])
        for cls, info in self.classes.items():
            tu.classes[cls] = info
        for fd in self._file_funcs[path]:
            fn = FunctionModel(qual=fd.qual, cls=fd.cls, name=fd.name,
                               file=path, line=fd.line)
            # The contract usually sits on the in-class declaration only:
            # calls in `Status Pool::FlushFrame(...) {` are still made
            # under the mutex its header REQUIRES.
            entry_args = fd.entry_args or \
                self._proto_requires.get((fd.cls, fd.name), [])
            fn.entry_locks = tuple(
                self._canon_lock(self._lock_components(args), fd, path)
                for args in entry_args if args)
            self._walk_body(path, fd, fn)
            fn.mentions = frozenset(t.text for t in fd.body
                                    if t.kind == "ident")
            fn.has_loop = bool(fn.mentions & {"for", "while", "do"})
            tu.functions.append(fn)
        return tu

    def _walk_body(self, path, fd, fn):
        toks = fd.body
        n = len(toks)
        locals_type = {}
        # Held locks: list of [canonical, line, depth_or_None(manual)]
        held = [[l, fd.line, None] for l in fn.entry_locks]
        depth = 0
        i = 0
        while i < n:
            t = toks[i]
            if t.text == "{":
                depth += 1
                i += 1
                continue
            if t.text == "}":
                held = [h for h in held if h[2] is None or h[2] < depth]
                depth -= 1
                i += 1
                continue
            if t.kind != "ident":
                i += 1
                continue
            nxt = toks[i + 1] if i + 1 < n else None
            # RAII lock: MutexLock name(&expr);
            if t.text in ("MutexLock", "ReaderMutexLock") and nxt and \
                    nxt.kind == "ident":
                k = i + 2
                if k < n and toks[k].text == "(":
                    e = self._skip_balanced(toks, k, "(", ")")
                    comps = self._lock_components(toks[k + 1:e - 1])
                    lock = self._canon_lock(comps, fd, path,
                                            locals_type)
                    fn.acquires.append(LockEvent(
                        lock, t.line, tuple(h[0] for h in held)))
                    held.append([lock, t.line, depth])
                    i = e
                    continue
            # Local declarations: `Type* name = ...` / `Mutex name;`
            if t.kind == "ident" and nxt and nxt.kind == "ident" and \
                    t.text not in KEYWORDS_NOT_CALLS and \
                    i + 2 < n and toks[i + 2].text in (";", "=", "{"):
                locals_type[nxt.text] = (t.text,)
            elif t.kind == "ident" and nxt and nxt.text == "*" and \
                    i + 2 < n and toks[i + 2].kind == "ident" and \
                    i + 3 < n and toks[i + 3].text in (";", "="):
                locals_type[toks[i + 2].text] = (t.text,)
            # Method/function calls (incl. Lock/Unlock/Wait specials).
            if nxt and nxt.text == "(" and \
                    t.text not in KEYWORDS_NOT_CALLS and \
                    t.text not in ANNOTATION_IDENTS:
                prev = toks[i - 1] if i > 0 else None
                recv, expr = self._receiver_before(toks, i)
                # Zero-arg Lock()/Unlock() only: LockManager::Lock(txn,
                # rid, mode) is the record-lock API, not a mutex.
                zero_arg = i + 2 < n and toks[i + 2].text == ")"
                if t.text in ("Lock", "Unlock") and recv is not None and \
                        zero_arg:
                    comps = self._expr_components(recv)
                    lock = self._canon_lock(comps, fd, path, locals_type)
                    if t.text == "Lock":
                        fn.acquires.append(LockEvent(
                            lock, t.line, tuple(h[0] for h in held),
                            manual=True))
                        held.append([lock, t.line, None])
                    else:
                        for h in reversed(held):
                            if h[0] == lock:
                                held.remove(h)
                                break
                    i += 2
                    continue
                if t.text in ("Wait", "WaitUntil", "WaitFor") and \
                        recv is not None:
                    cv = recv
                    mutex = self._cv_mutex(cv, fd, path, locals_type)
                    fn.waits.append(WaitEvent(
                        cv, mutex, t.line, tuple(h[0] for h in held)))
                    i += 2
                    continue
                # A plain declaration `Type name(args)` is not a call.
                if prev is not None and prev.kind == "ident" and \
                        prev.text not in KEYWORDS_NOT_CALLS and \
                        recv is None:
                    i += 1
                    continue
                recv_type = None
                if recv is not None:
                    recv_type = self._resolve_type(
                        self._expr_components(recv), fd, path, locals_type)
                fn.calls.append(CallEvent(
                    expr=expr, name=t.text, recv=recv,
                    recv_type=recv_type, line=t.line,
                    held=tuple(h[0] for h in held),
                    held_lines={h[0]: h[1] for h in held}))
                i += 1
                continue
            i += 1

    def _receiver_before(self, toks, i):
        """For a call at toks[i] (`name(`): the receiver expression text
        before a `.`/`->`, or None for a free call. Returns (recv, expr)."""
        j = i - 1
        if j < 0 or toks[j].text not in (".", "->"):
            if j >= 0 and toks[j].text == "::":
                # Qualified call A::f() — fold the qualifier into expr.
                k = j - 1
                parts = [toks[i].text]
                while k >= 0 and toks[k].kind == "ident":
                    parts.insert(0, toks[k].text)
                    if k - 1 >= 0 and toks[k - 1].text == "::":
                        k -= 2
                    else:
                        break
                return None, "::".join(parts)
            return None, toks[i].text
        parts = []
        sep = toks[j].text
        j -= 1
        while j >= 0:
            t = toks[j]
            if t.kind == "ident":
                parts.insert(0, t.text)
                j -= 1
                if j >= 0 and toks[j].text in (".", "->", "::"):
                    parts.insert(0, toks[j].text)
                    j -= 1
                    continue
                break
            if t.text == ")":
                # receiver is a call result, e.g. StateOf(ctx)->mu
                k = self._skip_balanced_back(toks, j)
                if k - 1 >= 0 and toks[k - 1].kind == "ident":
                    parts.insert(0, "()")
                    parts.insert(0, toks[k - 1].text)
                    j = k - 2
                    if j >= 0 and toks[j].text in (".", "->", "::"):
                        parts.insert(0, toks[j].text)
                        j -= 1
                        continue
                break
            break
        recv = "".join(parts)
        return recv or None, f"{recv}{sep}{toks[i].text}"

    # ---- expression / lock canonicalization ---------------------------

    def _lock_components(self, toks):
        """Parse `&expr` tokens into [(name, is_call), ...] components."""
        comps, i, n = [], 0, len(toks)
        while i < n:
            t = toks[i]
            if t.text in ("&", "*", ".", "->", "::", "this"):
                i += 1
                continue
            if t.kind == "ident":
                is_call = i + 1 < n and toks[i + 1].text == "("
                comps.append((t.text, is_call))
                if is_call:
                    i = self._skip_balanced(toks, i + 1, "(", ")")
                else:
                    i += 1
                continue
            i += 1
        return comps

    def _expr_components(self, expr):
        comps = []
        for part in expr.replace("->", ".").replace("::", ".").split("."):
            if not part:
                continue
            if part.endswith("()"):
                comps.append((part[:-2], True))
            else:
                comps.append((part, False))
        return comps

    def _canon_lock(self, comps, fd, path, locals_type=None):
        """Canonical lock id, e.g. `LogManager::mu_`, `State::mu`,
        `StateOf().mu` resolved through member/return types."""
        if not comps:
            return "?"
        locals_type = locals_type or {}
        ctx = fd.cls  # enclosing class qualified name
        resolved = []
        for idx, (name, is_call) in enumerate(comps):
            last = idx == len(comps) - 1
            if last:
                owner = ctx if ctx and self._is_member(ctx, name) else None
                if owner is None and not resolved:
                    g = self.classes.get("<globals>")
                    if g and name in g.members:
                        return name  # file-scope global mutex
                if owner:
                    return f"{owner}::{name}"
                if resolved:
                    return "::".join(resolved) + f"::{name}"
                return f"{fd.qual}:{name}"  # param / unresolved local
            if is_call:
                ret = self.free_fn_ret.get((path, name))
                if ret:
                    ctx = self._find_class(ret, ctx)
                    resolved = [ctx or ret]
                else:
                    resolved = [f"{name}()"]
                    ctx = None
                continue
            ty = None
            if name in locals_type:
                ty = locals_type[name]
            elif ctx and self._is_member(ctx, name):
                ty = self._member_type(ctx, name)
            if ty:
                tyname = next((x for x in reversed(ty)
                               if x[:1].isupper()), ty[-1])
                nctx = self._find_class(tyname, ctx)
                if nctx:
                    ctx = nctx
                    resolved = [nctx]
                    continue
            resolved.append(name)
            ctx = None
        return "::".join(resolved) if resolved else "?"

    def _cv_mutex(self, cv_expr, fd, path, locals_type):
        comps = self._expr_components(cv_expr)
        if not comps:
            return None
        cv_name = comps[-1][0]
        owner = fd.cls
        if len(comps) > 1:
            # Resolve the owner of the cv member through types.
            probe = self._canon_lock(comps, fd, path, locals_type)
            owner = probe.rsplit("::", 1)[0] if "::" in probe else None
        if owner and owner in self.classes:
            bound = self.classes[owner].cv_bound_to.get(cv_name)
            if bound:
                return self._canon_lock([(bound, False)], fd, path,
                                       locals_type)
        return None

    def _resolve_type(self, comps, fd, path, locals_type):
        ctx = fd.cls
        for name, is_call in comps:
            if is_call:
                ret = self.free_fn_ret.get((path, name))
                ctx = self._find_class(ret, ctx) if ret else None
                continue
            ty = None
            if name in (locals_type or {}):
                ty = locals_type[name]
            elif ctx and self._is_member(ctx, name):
                ty = self._member_type(ctx, name)
            if not ty:
                return None
            tyname = next((x for x in reversed(ty) if x[:1].isupper()),
                          ty[-1])
            ctx = self._find_class(tyname, ctx)
            if ctx is None:
                return tyname
        return ctx

    def _is_member(self, cls, name):
        info = self.classes.get(cls)
        return bool(info and name in info.members)

    def _member_type(self, cls, name):
        return self.classes[cls].members.get(name)

    def _find_class(self, name, ctx):
        """Resolve a type name to a known class: nested under ctx first."""
        if not name:
            return None
        if ctx:
            probe = f"{ctx}::{name}"
            if probe in self.classes:
                return probe
            outer = ctx.rsplit("::", 1)[0] if "::" in ctx else None
            if outer and f"{outer}::{name}" in self.classes:
                return f"{outer}::{name}"
        if name in self.classes:
            return name
        for qual in self.classes:
            if qual.endswith(f"::{name}"):
                return qual
        return None

    # ---- raw-source facts ---------------------------------------------

    def _scan_status_facts(self, path, toks, tu):
        lines = self._file_lines[path]
        n = len(toks)
        for i, t in enumerate(toks):
            if t.text == "Status" and i + 3 < n and \
                    toks[i + 1].text == "::" and \
                    toks[i + 2].text in ("IOError", "RetryableIOError") \
                    and toks[i + 3].text == "(":
                tu.status_facts.append(StatusFact(
                    "ioerror", f"Status::{toks[i + 2].text}", t.line))
            if t.text == "(" and i + 2 < n and \
                    toks[i + 1].text == "void" and toks[i + 2].text == ")":
                # (void)<expr>; — flag only dropped *calls*.
                j, has_call = i + 3, False
                while j < n and toks[j].text != ";":
                    if toks[j].text == "(":
                        has_call = True
                        break
                    j += 1
                if has_call and i + 3 < n and toks[i + 3].kind == "ident":
                    # The tree's convention puts the reason either on the
                    # drop's own line or the comment line directly above.
                    here = lines[t.line - 1] if \
                        t.line - 1 < len(lines) else ""
                    above = lines[t.line - 2] if t.line >= 2 else ""
                    commented = "//" in here or \
                        above.lstrip().startswith("//")
                    tu.status_facts.append(StatusFact(
                        "void-drop", toks[i + 3].text, t.line,
                        commented=commented))

    def _scan_dispatch(self, toks, tu):
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind == "ident" and t.text.endswith(OPS_SUFFIXES) and \
                    i + 4 < n and toks[i + 1].text == "(" and \
                    toks[i + 2].text == ")" and toks[i + 3].text == "." \
                    and toks[i + 4].kind == "ident" and \
                    i + 5 < n and toks[i + 5].text == "(":
                tu.dispatches.append(DirectDispatch(
                    f"{t.text}().{toks[i + 4].text}(...)", t.line))

    def _scan_mutex_facts(self, path, toks, tu):
        n = len(toks)
        for i, t in enumerate(toks):
            if t.text == "std" and i + 2 < n and toks[i + 1].text == "::" \
                    and toks[i + 2].text in RAW_LOCK_PRIMITIVES:
                tu.raw_mutexes.append((t.line, toks[i + 2].text))
        # Resolve each guard in the scope of the class that declares it,
        # so `GUARDED_BY(mu_)` in one class never covers another's `mu_`.
        for cls, args in self._file_guards.get(path, []):
            scope = SimpleNamespace(cls=cls, qual=cls or "")
            tu.lock_annotated.add(
                self._canon_lock(self._lock_components(args), scope, path))

    # ---- token utilities ----------------------------------------------

    @staticmethod
    def _skip_balanced(toks, i, open_t, close_t):
        """i indexes the opening token; returns index after the match."""
        depth, n = 0, len(toks)
        while i < n:
            if toks[i].text == open_t:
                depth += 1
            elif toks[i].text == close_t:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    @staticmethod
    def _skip_balanced_back(toks, i):
        """i indexes a `)`; returns index of the matching `(`."""
        depth = 0
        while i >= 0:
            if toks[i].text == ")":
                depth += 1
            elif toks[i].text == "(":
                depth -= 1
                if depth == 0:
                    return i
            i -= 1
        return 0

    @staticmethod
    def _skip_angles(toks, i):
        """i indexes a `<`; best-effort skip of a template arg list."""
        depth, n = 0, len(toks)
        while i < n:
            t = toks[i].text
            if t == "<":
                depth += 1
            elif t in (">", ">>"):
                depth -= 2 if t == ">>" else 1
                if depth <= 0:
                    return i + 1
            elif t in (";", "{"):
                return i  # not a template after all
            i += 1
        return n
