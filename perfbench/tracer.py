"""Outside-in tracing of goldpoly: wraps public functions from outside the package.

Each wrapped call records a span (name, start, end, parent, item) in memory.
The item is the ``N`` the call works on when its first parameter is ``N``,
otherwise the item of the enclosing span, and at the root the command name.
Functions are rebound in every goldpoly module that holds them under their
name, because ``roots``, ``factor`` and ``goldbach`` import ``poly``
functions with ``from .poly import ...``; patching ``poly`` alone would miss
those calls.  Methods are wrapped on the class.

``modp.mul.fft_points`` is measured, not modelled: ``numpy.fft.rfft`` is
wrapped too, and every forward transform called directly inside a
``modp.mul`` span adds its length.  So the counter follows whatever branch
``modp.mul`` really takes, and drops if transforms are shared or cached.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy.fft

# module -> public functions to wrap; span name is "<module>.<function>"
FUNCTIONS = {
    "cli": ["main"],
    "arith": ["goldbach_count_table", "twin_prime_constant", "spf_sieve"],
    "goldbach": ["goldbach_polynomial", "verify_divisibility", "symmetry_report",
                 "root_bounds_report", "stable_coefficient_table",
                 "summatory_report", "hl_summary"],
    "poly": ["divrem_exact", "cyclotomic", "gcd_rational",
             "exact_quotient_or_none", "remainder_mod_cyclotomic",
             "substitute_negate"],
    "modp": ["mul", "divmod_poly", "gcd"],
    "roots": ["aberth_solve", "strip_unit_circle_part", "classify_roots"],
    "factor": ["certify_goldbach_quotient", "distinct_degree_pattern",
               "linear_root_screen", "reduce_mod_p"],
}

# (module, class) -> methods; "__init__" is named after the class alone
METHODS = {
    ("arith", "PrimeTable"): ["__init__"],
    ("modp", "ModulusContext"): ["reduce", "mulmod", "powmod"],
}

# span name -> (counter name, function of (args, result) giving the increment)
COUNTERS = {
    "roots.aberth_solve": ("roots.aberth_solve.iterations",
                           lambda args, res: res.iterations),
    "factor.certify_goldbach_quotient": ("factor.primes_used",
                                         lambda args, res: len(res.primes_used)),
}

FFT_POINTS = "modp.mul.fft_points"


class Tracer:
    """Span recorder; ``install`` patches the loaded goldpoly modules."""

    def __init__(self, root_item: str):
        self.root_item = root_item
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.item: list = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keyed_by_n: bool):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, item = self.name_of, self.parent, self.item
        start, end, stack = self.start, self.end, self._stack
        counter = COUNTERS.get(name)
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            up = stack[-1] if stack else -1
            if keyed_by_n:
                it = args[0] if args else kwargs["N"]
            else:
                it = item[up] if up >= 0 else self.root_item
            name_of.append(nid)
            parent.append(up)
            item.append(it)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, inc = counter
                counters[key] = counters.get(key, 0) + inc(args, result)
            return result

        return traced

    def _count_fft(self, rfft):
        """rfft that adds its transform length to FFT_POINTS when called
        directly inside a modp.mul span."""
        mul = self.names.index("modp.mul")
        name_of, stack, counters = self.name_of, self._stack, self.counters

        def counted(a, n=None, *args, **kwargs):
            if stack and name_of[stack[-1]] == mul:
                points = len(a) if n is None else n
                counters[FFT_POINTS] = counters.get(FFT_POINTS, 0) + points
            return rfft(a, n, *args, **kwargs)

        return counted

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "goldpoly" or n.startswith("goldpoly.")]
        for mod_name, funcs in FUNCTIONS.items():
            mod = sys.modules[f"goldpoly.{mod_name}"]
            for fname in funcs:
                fn = getattr(mod, fname)
                params = list(inspect.signature(fn).parameters)
                wrapper = self._wrap(f"{mod_name}.{fname}", fn,
                                     bool(params) and params[0] == "N")
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, attr, wrapper)
        for (mod_name, cls_name), meths in METHODS.items():
            cls = getattr(sys.modules[f"goldpoly.{mod_name}"], cls_name)
            for meth in meths:
                span = f"{mod_name}.{cls_name}"
                if meth != "__init__":
                    span += f".{meth}"
                self._set(cls, meth, self._wrap(span, getattr(cls, meth), False))
        self._set(numpy.fft, "rfft", self._count_fft(numpy.fft.rfft))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)

    def summary(self) -> dict:
        """Per span name: calls and self time; plus the counters."""
        n = len(self.name_of)
        names, name_of, parent = self.names, self.name_of, self.parent
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        spans = {name: {"calls": 0, "self_s": 0.0} for name in names}
        for i in range(n):
            s = spans[names[name_of[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - covered[i]

        # modp.gcd calls nested anywhere under poly.gcd_rational
        gcd_rational = names.index("poly.gcd_rational")
        modp_gcd = names.index("modp.gcd")
        under = [False] * n
        images = 0
        for i in range(n):
            up = parent[i]
            under[i] = up >= 0 and (under[up] or name_of[up] == gcd_rational)
            if under[i] and name_of[i] == modp_gcd:
                images += 1

        gp = names.index("goldbach.goldbach_polynomial")
        gp_items = {self.item[i] for i in range(n) if name_of[i] == gp}
        keys = [key for key, _ in COUNTERS.values()] + [FFT_POINTS]
        counters = {key: self.counters.get(key, 0) for key in keys}
        counters["poly.gcd_rational.images"] = images
        counters["goldbach.distinct_n"] = len(gp_items)
        return {"spans": spans, "counters": counters}

    def dump(self, path: str) -> None:
        """Write every span as CSV: name,start_s,end_s,parent,item."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            for i in range(len(self.name_of)):
                fh.write(f"{self.names[self.name_of[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.item[i]}\n")
