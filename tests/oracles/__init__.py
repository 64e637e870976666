"""Bit-identity oracles: earlier implementations the package has replaced.

Each module here keeps a superseded implementation verbatim so tests can
pin the shipped code against it bit for bit.  Nothing under ``src/``
imports from this package.
"""
