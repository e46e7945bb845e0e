"""Setuptools shim for environments without the ``wheel`` package.

Configuration lives in ``pyproject.toml``; this file only enables the
legacy editable install ``python setup.py develop`` on offline boxes.
Without ``wheel``, ``pip install -e .`` fails with ``invalid command
'bdist_wheel'`` whether or not this file exists.
"""

from setuptools import setup

setup()
