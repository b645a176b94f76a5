"""Cryptographic substrate: hashing, PRFs, Bloom filters, vector
commitments (plain and chameleon) and the one modular-exponentiation
kernel they share.

Everything in this package is implemented from scratch on the Python
standard library, per the reproduction's no-external-crypto constraint.
"""
