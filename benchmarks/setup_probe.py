"""Set-up probe, run in a fresh interpreter: times ``import dsmseq`` and then
loading and building every case file named on the command line, with the
speed probe of ``pace`` running. Prints one JSON line. Only the standard
library modules that ``pace`` needs are loaded before the clock starts, so
the import time includes every dependency dsmseq pulls in."""

import importlib
import sys

from pace import Pace

pace = Pace()
package, import_s, import_raw_s = pace.timed(lambda: importlib.import_module("dsmseq"))
_, load_s, load_raw_s = pace.timed(
    lambda: [package.build_adjacency(package.load_case(path)) for path in sys.argv[1:]]
)

import json  # noqa: E402

print(json.dumps({
    "import_s": import_s,
    "load_s": load_s,
    "import_raw_s": import_raw_s,
    "load_raw_s": load_raw_s,
    "package": package.__file__,
}))
