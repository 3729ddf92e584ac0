import sys

from .flags import main

sys.exit(main())
