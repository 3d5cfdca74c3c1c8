"""`python -m lrrc ...` runs the lrrc command line."""

from .cli_sim import main

if __name__ == "__main__":
    main()
