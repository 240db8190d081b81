"""python -m hyperarcs: the hyperarcs command line."""
from hyperarcs.cli import main

main()
